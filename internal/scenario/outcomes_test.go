package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update re-records testdata/compile-outcomes.golden instead of
// comparing against it:
//
//	go test ./internal/scenario -run TestCompileOutcomes -update
var update = flag.Bool("update", false, "rewrite testdata/compile-outcomes.golden")

// mutation is one single-field edit of a decoded spec: the edited copy
// and a name saying which field changed and how.
type mutation struct {
	name string
	doc  any
}

// mutations derives v's single-field mutations, each a copy of v that
// shares every untouched subtree: an unknown key added to every object,
// every key deleted, every number replaced by -1, 0, 2.5, 1e12 and a
// string, and every string by "bogus", "" and a number. at is v's path
// in the spec.
func mutations(v any, at string) []mutation {
	var out []mutation
	switch v := v.(type) {
	case map[string]any:
		// with copies v with key set to val, or deleted when val is nil.
		with := func(key string, val any) map[string]any {
			m := make(map[string]any, len(v)+1)
			for k, e := range v {
				m[k] = e
			}
			if val == nil {
				delete(m, key)
			} else {
				m[key] = val
			}
			return m
		}
		out = append(out, mutation{"+" + joinPath(at, "zz_unknown"), with("zz_unknown", json.Number("1"))})
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = append(out, mutation{"-" + joinPath(at, k), with(k, nil)})
			for _, sub := range mutations(v[k], joinPath(at, k)) {
				out = append(out, mutation{sub.name, with(k, sub.doc)})
			}
		}
	case []any:
		for i, e := range v {
			for _, sub := range mutations(e, fmt.Sprintf("%s[%d]", at, i)) {
				a := append([]any(nil), v...)
				a[i] = sub.doc
				out = append(out, mutation{sub.name, a})
			}
		}
	case json.Number:
		for _, r := range []any{json.Number("-1"), json.Number("0"), json.Number("2.5"), json.Number("1e12"), "x"} {
			out = append(out, mutation{fmt.Sprintf("%s=%s", at, literal(r)), r})
		}
	case string:
		for _, r := range []any{"bogus", "", json.Number("1")} {
			out = append(out, mutation{fmt.Sprintf("%s=%s", at, literal(r)), r})
		}
	}
	return out
}

// joinPath appends key to a spec path.
func joinPath(at, key string) string {
	if at == "" {
		return key
	}
	return at + "." + key
}

// literal renders a replacement value as it appears in the JSON.
func literal(v any) string {
	if s, ok := v.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprint(v)
}

// TestCompileOutcomes pins the compiler's verdict on every field of
// every library spec: one line per single-field mutation, naming the
// spec, the mutation, and "ok" or the exact error text. An accepted
// spec that starts failing, a rejected one that slips through, and a
// reworded or re-pathed error all show up as a changed line.
func TestCompileOutcomes(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("library specs: %v, %v", paths, err)
	}
	var got bytes.Buffer
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var root any
		if err := dec.Decode(&root); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, m := range mutations(root, "") {
			src, err := json.Marshal(m.doc)
			if err != nil {
				t.Fatalf("%s %s: %v", path, m.name, err)
			}
			outcome := "ok"
			if _, err := Compile(src); err != nil {
				outcome = strings.ReplaceAll(err.Error(), "\n", `\n`)
			}
			fmt.Fprintf(&got, "%s\t%s\t%s\n", filepath.Base(path), m.name, outcome)
		}
	}
	golden := filepath.Join("testdata", "compile-outcomes.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d outcome lines, golden has %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			if bad++; bad == 10 {
				t.Fatal("more than 10 outcomes differ")
			}
		}
	}
}

package scenario

// The strict JSON object walker behind the spec compiler, exported so
// sibling declarative formats — the campaign files of internal/campaign
// — parse with the same discipline: positional errors, unknown-key
// rejection, NaN/Inf refusal, integer checks. The walker is not a
// general JSON library; it is the narrow contract "one object, every
// key accounted for, first error wins" that keeps a typo'd knob from
// becoming a silently default-valued run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Obj walks one JSON object with positional error reporting and strict
// unknown-key rejection. Accessors record the first error in a shared
// slot and return zero values afterwards, so parsing code reads
// straight through without per-field error plumbing. Build the root
// with Root; derive nested walkers with Child/Children.
type Obj struct {
	prefix string
	path   string
	m      map[string]any
	seen   map[string]bool
	err    *error
}

// Root strictly decodes data as a single JSON object and returns its
// walker. prefix heads every error the walker reports ("scenario",
// "campaign"), keeping errors attributable to the format that raised
// them. Numbers are kept as json.Number so integer and finiteness
// checks see the literal, not a lossy float.
func Root(data []byte, prefix string) (*Obj, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after the spec object", prefix)
	}
	rootMap, ok := raw.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: spec must be a JSON object, got %s", prefix, typeName(raw))
	}
	var firstErr error
	return &Obj{prefix: prefix, m: rootMap, seen: map[string]bool{}, err: &firstErr}, nil
}

// Err returns the first error any accessor on this walker tree
// recorded, or nil. Callers check it once, after walking everything.
func (o *Obj) Err() error { return *o.err }

// Fail records a fault at key, formatted "<prefix>: <path>.<key>:
// <msg>", unless an earlier error already claimed the slot. The
// compilers report their semantic checks through it as well, so a
// range fault carries the same positional path as a type fault.
func (o *Obj) Fail(key, format string, a ...any) {
	if *o.err != nil {
		return
	}
	at := o.path
	if at != "" && key != "" {
		at += "."
	}
	at += key
	*o.err = fmt.Errorf("%s: %s: %s", o.prefix, at, fmt.Sprintf(format, a...))
}

// get marks key as consumed and returns its raw value.
func (o *Obj) get(key string) (any, bool) {
	o.seen[key] = true
	v, ok := o.m[key]
	return v, ok
}

// Has reports whether the object carries the key, without consuming it.
func (o *Obj) Has(key string) bool {
	_, ok := o.m[key]
	return ok
}

// Str reads an optional string field.
func (o *Obj) Str(key string) string {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		o.Fail(key, "want a string, got %s", typeName(v))
		return ""
	}
	return s
}

// Bool reads an optional boolean field.
func (o *Obj) Bool(key string) bool {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		o.Fail(key, "want a bool, got %s", typeName(v))
		return false
	}
	return b
}

// Num reads an optional finite number field.
func (o *Obj) Num(key string) float64 {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return 0
	}
	n, ok := v.(json.Number)
	if !ok {
		o.Fail(key, "want a number, got %s", typeName(v))
		return 0
	}
	f, err := n.Float64()
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		// json.Number.Float64 overflows to ±Inf for literals like 1e999;
		// non-finite knobs poison every downstream comparison, so the
		// parser is where they die.
		o.Fail(key, "non-finite number %q", n.String())
		return 0
	}
	return f
}

// Int reads an optional integral number field.
func (o *Obj) Int(key string) int {
	f := o.Num(key)
	if *o.err != nil {
		return 0
	}
	if f != math.Trunc(f) || math.Abs(f) > 1<<53 {
		o.Fail(key, "want an integer, got %g", f)
		return 0
	}
	return int(f)
}

// Child reads an optional object field; nil when absent.
func (o *Obj) Child(key string) *Obj {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		o.Fail(key, "want an object, got %s", typeName(v))
		return nil
	}
	return &Obj{prefix: o.prefix, path: o.joined(key), m: m, seen: map[string]bool{}, err: o.err}
}

// Children reads an optional array-of-objects field.
func (o *Obj) Children(key string) []*Obj {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return nil
	}
	arr, ok := v.([]any)
	if !ok {
		o.Fail(key, "want an array, got %s", typeName(v))
		return nil
	}
	out := make([]*Obj, 0, len(arr))
	for i, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			o.Fail(fmt.Sprintf("%s[%d]", key, i), "want an object, got %s", typeName(e))
			return nil
		}
		out = append(out, &Obj{
			prefix: o.prefix,
			path:   fmt.Sprintf("%s[%d]", o.joined(key), i),
			m:      m, seen: map[string]bool{}, err: o.err,
		})
	}
	return out
}

// Strs reads an optional array-of-strings field.
func (o *Obj) Strs(key string) []string {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return nil
	}
	arr, ok := v.([]any)
	if !ok {
		o.Fail(key, "want an array, got %s", typeName(v))
		return nil
	}
	out := make([]string, 0, len(arr))
	for i, e := range arr {
		s, ok := e.(string)
		if !ok {
			o.Fail(fmt.Sprintf("%s[%d]", key, i), "want a string, got %s", typeName(e))
			return nil
		}
		out = append(out, s)
	}
	return out
}

// Nums reads an optional array-of-finite-numbers field.
func (o *Obj) Nums(key string) []float64 {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return nil
	}
	arr, ok := v.([]any)
	if !ok {
		o.Fail(key, "want an array, got %s", typeName(v))
		return nil
	}
	out := make([]float64, 0, len(arr))
	for i, e := range arr {
		at := fmt.Sprintf("%s[%d]", key, i)
		n, ok := e.(json.Number)
		if !ok {
			o.Fail(at, "want a number, got %s", typeName(e))
			return nil
		}
		f, err := n.Float64()
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			o.Fail(at, "non-finite number %q", n.String())
			return nil
		}
		out = append(out, f)
	}
	return out
}

// Pairs reads an optional array of [a,b] integer pairs.
func (o *Obj) Pairs(key string) [][2]int {
	v, ok := o.get(key)
	if !ok || *o.err != nil {
		return nil
	}
	arr, ok := v.([]any)
	if !ok {
		o.Fail(key, "want an array, got %s", typeName(v))
		return nil
	}
	out := make([][2]int, 0, len(arr))
	for i, e := range arr {
		at := fmt.Sprintf("%s[%d]", key, i)
		pair, ok := e.([]any)
		if !ok || len(pair) != 2 {
			o.Fail(at, "want a [a, b] station index pair")
			return nil
		}
		var ab [2]int
		for j, pe := range pair {
			n, ok := pe.(json.Number)
			f, ferr := 0.0, error(nil)
			if ok {
				f, ferr = n.Float64()
			}
			if !ok || ferr != nil || f != math.Trunc(f) {
				o.Fail(at, "want integer station indices")
				return nil
			}
			ab[j] = int(f)
		}
		out = append(out, ab)
	}
	return out
}

// Done rejects any key the walkers never consumed — the strictness
// that turns a typo'd knob into a parse error instead of a silently
// default-valued spec.
func (o *Obj) Done() {
	if *o.err != nil {
		return
	}
	var unknown []string
	for k := range o.m {
		if !o.seen[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return
	}
	sort.Strings(unknown)
	o.Fail(unknown[0], "unknown key (known keys: %s)", strings.Join(knownKeys(o.seen), ", "))
}

// joined appends key to the object's path.
func (o *Obj) joined(key string) string {
	if o.path == "" {
		return key
	}
	return o.path + "." + key
}

// knownKeys lists the keys the walker consumed, sorted, for the
// unknown-key error message.
func knownKeys(seen map[string]bool) []string {
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// typeName names a decoded JSON value for error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "a bool"
	case string:
		return "a string"
	case json.Number:
		return "a number"
	case []any:
		return "an array"
	case map[string]any:
		return "an object"
	}
	return fmt.Sprintf("%T", v)
}

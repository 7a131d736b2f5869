package metrics

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Render formats a run's rows as text derived from their structure, so an
// experiment states its rows once and the console shows what the BENCH
// file records:
//
//   - a slice or array of structs is one aligned table whose columns are
//     its leaf fields, nested structs flattened as Outer.Inner;
//   - a struct prints its scalar fields as "name: value" lines, its nested
//     structs' fields under their dotted names, and each slice of structs
//     as a table titled with the field's name;
//   - a pointer prints what it points at, and a nil one as "-".
//
// Names are the keys encoding/json writes, and a field it omits as empty
// is left out. A value with a String method prints through it; a float
// keeps four significant digits.
func Render(v any) string {
	var b strings.Builder
	render(&b, "", reflect.ValueOf(v))
	return b.String()
}

var stringer = reflect.TypeFor[fmt.Stringer]()

// record reports whether t (through pointers) is a struct Render walks
// into rather than prints as one value through its String method.
func record(t reflect.Type) bool {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Kind() == reflect.Struct && !t.Implements(stringer) && !reflect.PointerTo(t).Implements(stringer)
}

// table reports whether t is a slice or array of records.
func table(t reflect.Type) bool {
	return (t.Kind() == reflect.Slice || t.Kind() == reflect.Array) && record(t.Elem())
}

// render writes v under the dotted prefix: a table, the lines of a record,
// or one value.
func render(b *strings.Builder, prefix string, v reflect.Value) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			line(b, prefix, "-")
			return
		}
		v = v.Elem()
	}
	switch {
	case !v.IsValid():
	case table(v.Type()):
		if prefix != "" {
			b.WriteString(prefix + ":\n")
		}
		b.WriteString(rowsTable(v).String())
	case record(v.Type()):
		for _, f := range fields(v.Type()) {
			if fv := v.Field(f.index); !f.omitEmpty || !empty(fv) {
				render(b, join(prefix, f.name), fv)
			}
		}
	default:
		line(b, prefix, cell(v))
	}
}

// line writes "name: value", or the value alone under an empty name.
func line(b *strings.Builder, name, value string) {
	if name != "" {
		b.WriteString(name + ": ")
	}
	b.WriteString(value + "\n")
}

// join appends name to the dotted prefix.
func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

// field is one exported field of a record under its JSON key.
type field struct {
	name      string
	index     int
	omitEmpty bool
}

// fields lists t's exported fields that encoding/json writes, by their
// JSON keys.
func fields(t reflect.Type) []field {
	var out []field
	for i := range t.NumField() {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = f.Name
		}
		out = append(out, field{name, i, slices.Contains(strings.Split(opts, ","), "omitempty")})
	}
	return out
}

// empty reports whether encoding/json's omitempty leaves v out.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.Array, reflect.String:
		return v.Len() == 0
	}
	return v.IsZero()
}

// column is one leaf field of a row type: its dotted name and the field
// indexes that reach it.
type column struct {
	name string
	path []int
}

// columns lists t's leaf fields, depth first, nested records flattened.
func columns(t reflect.Type, prefix string, path []int) []column {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var out []column
	for _, f := range fields(t) {
		p := append(path[:len(path):len(path)], f.index)
		if ft := t.Field(f.index).Type; record(ft) {
			out = append(out, columns(ft, join(prefix, f.name), p)...)
		} else {
			out = append(out, column{join(prefix, f.name), p})
		}
	}
	return out
}

// rowsTable lays out a slice or array of records, one row per element.
func rowsTable(v reflect.Value) *Table {
	cols := columns(v.Type().Elem(), "", nil)
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.name
	}
	t := NewTable(header...)
	for r := range v.Len() {
		cells := make([]any, len(cols))
		for i, c := range cols {
			cells[i] = leaf(v.Index(r), c.path)
		}
		t.AddRow(cells...)
	}
	return t
}

// leaf follows path from the row v and formats the value it reaches; a
// nil pointer on the way reads "-".
func leaf(v reflect.Value, path []int) string {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				return "-"
			}
			v = v.Elem()
		}
		v = v.Field(i)
	}
	return cell(v)
}

// cell formats one value: "-" for a nil pointer, through String when the
// value has one, floats to four significant digits, anything else as %v.
func cell(v reflect.Value) string {
	if v.Kind() == reflect.Pointer && v.IsNil() {
		return "-"
	}
	if v.Type().Implements(stringer) {
		return v.Interface().(fmt.Stringer).String()
	}
	if v.CanAddr() && v.Addr().Type().Implements(stringer) {
		return v.Addr().Interface().(fmt.Stringer).String()
	}
	if v.Kind() == reflect.Float32 || v.Kind() == reflect.Float64 {
		return formatFloat(v.Float())
	}
	return fmt.Sprint(v.Interface())
}

// formatFloat prints f in fixed notation with four significant digits
// (all of its integer digits when it has more).
func formatFloat(f float64) string {
	if f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	decimals := max(3-int(math.Floor(math.Log10(math.Abs(f)))), 0)
	return strconv.FormatFloat(f, 'f', decimals, 64)
}

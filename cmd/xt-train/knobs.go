package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"time"
)

// knob is one flag-tagged struct field: the flag and JSON key it answers
// to and, for a time.Duration, the unit its JSON value counts.
type knob struct {
	name, key string
	field     reflect.Value
	jsonUnit  time.Duration
}

var units = map[string]time.Duration{"ms": time.Millisecond, "s": time.Second}

// bind defines a flag on fs for every flag-tagged field of the structs ptrs
// point at, nested structs included, bound to the field and defaulting to
// its current value. A flag that counts whole units of a duration parses
// into an integer, which the returned settle stores into its field after
// Parse.
func bind(fs *flag.FlagSet, ptrs ...any) (ks []knob, settle func()) {
	var counts []func()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			if f.Kind() == reflect.Struct && sf.IsExported() {
				walk(f)
			}
			name, help, unit := sf.Tag.Get("flag"), sf.Tag.Get("help"), units[sf.Tag.Get("unit")]
			if name == "" {
				continue
			}
			switch p := f.Addr().Interface().(type) {
			case *string:
				fs.StringVar(p, name, *p, help)
			case *bool:
				fs.BoolVar(p, name, *p, help)
			case *int:
				fs.IntVar(p, name, *p, help)
			case *int64:
				fs.Int64Var(p, name, *p, help)
			case *float64:
				fs.Float64Var(p, name, *p, help)
			case *time.Duration:
				if unit == 0 {
					fs.DurationVar(p, name, *p, help)
					break
				}
				n := fs.Int64(name, int64(*p/unit), help)
				counts = append(counts, func() { *p = time.Duration(*n) * unit })
			default:
				panic(fmt.Sprintf("xt-train: flag -%s has unsupported type %T", name, p))
			}
			jsonUnit := units[sf.Tag.Get("jsonunit")]
			if jsonUnit == 0 {
				jsonUnit = unit
			}
			ks = append(ks, knob{name, sf.Tag.Get("json"), f, jsonUnit})
		}
	}
	for _, p := range ptrs {
		walk(reflect.ValueOf(p).Elem())
	}
	return ks, func() {
		for _, c := range counts {
			c()
		}
	}
}

// overlay applies a JSON deployment config on top of the knobs with
// encoding/json's own key matching: a key present replaces its knob's
// value, keys no knob declares are ignored.
func overlay(data []byte, ks []knob) error {
	fields := make([]reflect.StructField, len(ks))
	for i, k := range ks {
		t, key := k.field.Type(), k.key
		if k.jsonUnit != 0 {
			t = reflect.TypeOf(int64(0))
		}
		if key == "" {
			key = "-"
		}
		fields[i] = reflect.StructField{Name: fmt.Sprintf("K%d", i), Type: reflect.PointerTo(t),
			Tag: reflect.StructTag(fmt.Sprintf("json:%q", key))}
	}
	doc := reflect.New(reflect.StructOf(fields)).Elem()
	if err := json.Unmarshal(data, doc.Addr().Interface()); err != nil {
		return err
	}
	for i, k := range ks {
		switch v := doc.Field(i); {
		case v.IsNil(): // key absent or null: the flag value stands
		case k.jsonUnit != 0:
			k.field.SetInt(v.Elem().Int() * int64(k.jsonUnit))
		default:
			k.field.Set(v.Elem())
		}
	}
	return nil
}

package sched

import (
	"reflect"
	"strings"
	"testing"
)

func TestExpand(t *testing.T) {
	cases := []struct {
		spec string
		max  int
		want []int
		err  string
	}{
		{spec: "", max: 3, want: []int{1, 2, 3}},
		{spec: "all", max: 2, want: []int{1, 2}},
		{spec: "1-4", max: 4, want: []int{1, 2, 3, 4}},
		{spec: "1,2,4", max: 4, want: []int{1, 2, 4}},
		{spec: "2-3,1", max: 4, want: []int{2, 3, 1}},
		{spec: "0-2", max: 4, err: "bad core range"},
		{spec: "3-2", max: 4, err: "bad core range"},
		{spec: "x", max: 4, err: "bad core count"},
		{spec: "0", max: 4, err: "bad core count"},
		{spec: "5", max: 4, err: "core count 5 exceeds the machine's 4 cores"},
		{spec: "1-2000000000", max: 4, err: "exceeds the machine's 4 cores"},
		{spec: "1-4,1-4", max: 4, err: "core count 1 listed twice"},
		{spec: "2,1-3", max: 4, err: "core count 2 listed twice"},
		{spec: "3,3", max: 4, err: "core count 3 listed twice"},
	}
	for _, c := range cases {
		got, err := Expand(c.spec, c.max)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("Expand(%q, %d) error = %v, want %q", c.spec, c.max, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Expand(%q, %d) = %v, %v; want %v", c.spec, c.max, got, err, c.want)
		}
	}
}

// TestValidateMatchesExpand pins the satellite contract: Validate accepts
// exactly the specs Expand accepts on an unbounded machine — one grammar,
// with the machine bound as the only service-side extra.
func TestValidateMatchesExpand(t *testing.T) {
	for _, spec := range []string{"", "all", "1-4", "1,2,4", "2-3,1", "0-2", "3-2", "x", "0", "1,", "-3"} {
		verr := Validate(spec)
		_, xerr := Expand(spec, 64)
		if (verr == nil) != (xerr == nil) {
			t.Errorf("Validate(%q) = %v but Expand = %v", spec, verr, xerr)
		}
	}
}

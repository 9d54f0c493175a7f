// Package sched is the one parser for core-schedule specs — "all", "1-12",
// "1,2,4,8" — shared by every layer that accepts them. The CLI validates
// schedule syntax up front (a typo fails before any simulation is queued)
// and the service additionally bounds schedules against the resolved
// machine and rejects repeated core counts; both speak through this
// package, so the grammar can never drift between entry points.
package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// walk parses the schedule grammar, calling each(lo, hi) once per part
// ("4" walks as each(4, 4)) without materializing any range — bound checks
// run before a hostile "1-2000000000" can balloon memory.
func walk(spec string, each func(lo, hi int) error) error {
	for _, part := range strings.Split(spec, ",") {
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			l, err1 := strconv.Atoi(lo)
			h, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || l < 1 || h < l {
				return fmt.Errorf("bad core range %q", part)
			}
			if err := each(l, h); err != nil {
				return err
			}
		} else {
			c, err := strconv.Atoi(part)
			if err != nil || c < 1 {
				return fmt.Errorf("bad core count %q", part)
			}
			if err := each(c, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate checks schedule syntax only — what a CLI can verify before the
// machine is resolved. "" and "all" are the full-range schedules and always
// valid.
func Validate(spec string) error {
	if spec == "" || spec == "all" {
		return nil
	}
	return walk(spec, func(lo, hi int) error { return nil })
}

// Expand parses a schedule against a machine's core count, expanding
// "all"/"" to 1..max and rejecting any count beyond the machine or listed
// twice, so no schedule is longer than its machine.
func Expand(spec string, max int) ([]int, error) {
	if spec == "" || spec == "all" {
		out := make([]int, max)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	}
	var out []int
	listed := make([]bool, max+1)
	err := walk(spec, func(lo, hi int) error {
		if hi > max {
			if lo == hi {
				return fmt.Errorf("core count %d exceeds the machine's %d cores", hi, max)
			}
			return fmt.Errorf("core range %q exceeds the machine's %d cores",
				strconv.Itoa(lo)+"-"+strconv.Itoa(hi), max)
		}
		for c := lo; c <= hi; c++ {
			if listed[c] {
				return fmt.Errorf("core count %d listed twice", c)
			}
			listed[c] = true
			out = append(out, c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

package core

import (
	"reflect"
	"testing"
)

// TestRankAtMatchesDominant: RankAt and Dominant apply one ordering rule
// (the larger value first, ties to the smaller name), so at every target
// the first ranked category is the dominant one.
func TestRankAtMatchesDominant(t *testing.T) {
	cases := []struct {
		name     string
		values   map[string][]float64
		ranked   [][]string // RankAt(i) category order per target
		dominant []string
	}{
		{"larger value first",
			map[string][]float64{"a": {1, 5}, "b": {3, 2}, "c": {2, 9}},
			[][]string{{"b", "c", "a"}, {"c", "a", "b"}},
			[]string{"b", "c"}},
		{"tie to the smaller name",
			map[string][]float64{"lock-spin": {4, 7}, "0D5h": {4, 7}, "barrier-wait": {1, 7}},
			[][]string{{"0D5h", "lock-spin", "barrier-wait"}, {"0D5h", "barrier-wait", "lock-spin"}},
			[]string{"0D5h", "0D5h"}},
		{"all zero",
			map[string][]float64{"z": {0}, "y": {0}},
			[][]string{{"y", "z"}},
			[]string{"y"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var n int
			for _, v := range c.values {
				n = len(v)
			}
			targets := make([]float64, n)
			for i := range targets {
				targets[i] = float64(12 * (i + 1))
			}
			p := &Prediction{TargetCores: targets, CategoryValues: c.values}
			d, err := p.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.Dominant, c.dominant) {
				t.Errorf("Dominant = %v, want %v", d.Dominant, c.dominant)
			}
			for i := range targets {
				var got []string
				for _, cd := range d.RankAt(i) {
					got = append(got, cd.Category)
				}
				if !reflect.DeepEqual(got, c.ranked[i]) {
					t.Errorf("RankAt(%d) = %v, want %v", i, got, c.ranked[i])
				}
				if got[0] != d.Dominant[i] {
					t.Errorf("RankAt(%d) ranks %s first, Dominant is %s", i, got[0], d.Dominant[i])
				}
			}
			// RankAt returns a copy: the diagnosis keeps its name order.
			for i := 1; i < len(d.Categories); i++ {
				if d.Categories[i-1].Category >= d.Categories[i].Category {
					t.Fatalf("Categories reordered: %s before %s", d.Categories[i-1].Category, d.Categories[i].Category)
				}
			}
		})
	}
}

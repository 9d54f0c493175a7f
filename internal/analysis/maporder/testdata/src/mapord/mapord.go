package mapord

import (
	"fmt"
	"sort"
	"strings"
)

func Emit(m map[string]int, w *strings.Builder) {
	for k := range m {
		w.WriteString(k) // want `WriteString call inside range over map`
	}
}

func Printed(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt\.Printf inside range over map`
	}
}

func CollectedThenSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func SortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func Unsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `keys collects in map-iteration order and is never sorted`
	}
	return keys
}

func LoopLocal(m map[string]int) int {
	n := 0
	for _, v := range m {
		vals := []int{}
		vals = append(vals, v)
		n += len(vals)
	}
	return n
}

func MapToMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

func Allowed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //estima:allow maporder fixture: caller sorts
	}
	return keys
}

func FloatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `total accumulates a float in map-iteration order`
	}
	return total
}

type stats struct{ spent float32 }

func FieldAndProduct(m map[string]float32, s *stats) float32 {
	prod := float32(1)
	for _, v := range m {
		s.spent -= v // want `s accumulates a float in map-iteration order`
		prod *= v    // want `prod accumulates a float in map-iteration order`
	}
	return prod
}

func IntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func SortedKeysSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func LoopLocalSum(m map[string][]float64) float64 {
	best := 0.0
	for _, vals := range m {
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// The benchmark's only randomness: every stream is a PCG generator seeded
// from --seed and a fixed stream constant, so one seed gives one schedule.
const (
	streamCold   = 1
	streamReplay = 2
	streamWarm   = 3
)

// scenario is one workload on one machine, both in canonical spec form.
type scenario struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
}

// axis is one spec parameter and the values a variant may take. Machine
// axes vary the machine spec (the fixed Table-4 apps have no parameters of
// their own); the others vary the workload spec.
type axis struct {
	key     string
	machine bool
	values  []string
}

// stratum is one cell of the cold-predict design: an app on a machine preset
// and the bounded value grid its never-seen variants are drawn from.
type stratum struct {
	family, machine string
	axes            []axis
}

// steps formats lo, lo+step, ..., hi.
func steps(lo, hi, step float64) []string {
	var out []string
	for i := 0; ; i++ {
		v := lo + float64(i)*step
		if v > hi+1e-9 {
			return out
		}
		out = append(out, strconv.FormatFloat(float64(int64(v*1000+0.5))/1000, 'g', -1, 64))
	}
}

// coldStrata lists the cold-predict design: every Table-4 app plus memcached
// and SQLite on Xeon20, and the apps cheap enough to compare on all 48
// Opteron cores. Variants stay close to the paper's configuration, so a
// round costs about the same whatever the seed: parameterized families
// vary their own schema keys around the defaults, the others vary the
// machine's memory bandwidth by up to 10%. Every grid holds at least 21
// variants, so a run can do 21 rounds before any stratum runs dry.
func coldStrata() []stratum {
	membw := []axis{{key: "membw", machine: true, values: steps(0.9, 1.1, 0.01)}}
	writepct := []axis{{key: "writepct", values: steps(10, 30, 1)}}
	family := map[string][]axis{
		"memcached":     {{key: "skew", values: steps(1.8, 2.2, 0.05)}, {key: "setpct", values: steps(3, 7, 1)}},
		"sqlite":        {{key: "writepct", values: steps(15, 25, 1)}, {key: "skew", values: steps(1.9, 2.1, 0.05)}},
		"lock-based HT": writepct,
		"lock-free HT":  writepct,
		"lock-based SL": writepct,
		"lock-free SL":  writepct,
		"intruder":      {{key: "flows", values: steps(1900, 2200, 15)}},
	}
	var out []stratum
	for _, app := range append(workloads.Table4Names(), "memcached", "sqlite") {
		axes, ok := family[app]
		if !ok {
			axes = membw
		}
		out = append(out, stratum{family: app, machine: "Xeon20", axes: axes})
	}
	for _, app := range []string{"memcached", "sqlite", "vacation-low", "K-NN", "bodytrack", "swaptions"} {
		axes, ok := family[app]
		if !ok {
			axes = membw
		}
		out = append(out, stratum{family: app, machine: "Opteron", axes: axes})
	}
	return out
}

// variants expands a stratum's grid into canonical scenarios, in grid order.
func (s stratum) variants() ([]scenario, error) {
	combos := [][]string{nil}
	for _, ax := range s.axes {
		var next [][]string
		for _, c := range combos {
			for _, v := range ax.values {
				next = append(next, append(append([]string(nil), c...), ax.key+"="+v))
			}
		}
		combos = next
	}
	var out []scenario
	seen := map[scenario]bool{}
	for _, c := range combos {
		var wk, mk []string
		for i, kv := range c {
			if s.axes[i].machine {
				mk = append(mk, kv)
			} else {
				wk = append(wk, kv)
			}
		}
		sc, err := canonical(withParams(s.family, wk), withParams(s.machine, mk))
		if err != nil {
			return nil, err
		}
		if !seen[sc] {
			seen[sc] = true
			out = append(out, sc)
		}
	}
	return out, nil
}

func withParams(name string, kvs []string) string {
	if len(kvs) == 0 {
		return name
	}
	return name + "?" + strings.Join(kvs, ",")
}

// canonical resolves a workload and machine spec to their canonical names,
// the identity every cache in the program keys on.
func canonical(w, m string) (scenario, error) {
	wl, err := workloads.Lookup(w)
	if err != nil {
		return scenario{}, err
	}
	mc, err := machine.Lookup(m)
	if err != nil {
		return scenario{}, err
	}
	return scenario{Workload: wl.Name(), Machine: mc.Name}, nil
}

// coldSchedule draws the cold-predict requests: round r visits every
// stratum once, in a seed-shuffled order, with the stratum's r-th variant of
// a seed-shuffled grid. No scenario repeats; a stratum whose grid is used up
// sits out later rounds.
func coldSchedule(seed int64) ([][]scenario, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), streamCold))
	strata := coldStrata()
	grids := make([][]scenario, len(strata))
	longest := 0
	for i, s := range strata {
		g, err := s.variants()
		if err != nil {
			return nil, fmt.Errorf("stratum %s on %s: %w", s.family, s.machine, err)
		}
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		grids[i] = g
		longest = max(longest, len(g))
	}
	rounds := make([][]scenario, longest)
	for r := range rounds {
		for _, si := range rng.Perm(len(strata)) {
			if r < len(grids[si]) {
				rounds[r] = append(rounds[r], grids[si][r])
			}
		}
	}
	return rounds, nil
}

// roundOrder is one client's schedule over a fixed pool of n items: every
// round visits each item once, in a fresh permutation drawn in order from
// the client's own seeded stream, so closed loops of any length never run
// out of schedule.
type roundOrder struct {
	rng  *rand.Rand
	n    int
	cur  int // round perm belongs to
	perm []int
}

func newRoundOrder(seed int64, stream uint64, client, n int) *roundOrder {
	rng := rand.New(rand.NewPCG(uint64(seed), stream<<32|uint64(client)))
	return &roundOrder{rng: rng, n: n, perm: rng.Perm(n)}
}

// item returns the pool index visited at position pos of round r. Rounds
// must be asked for in non-decreasing order.
func (s *roundOrder) item(r, pos int) int {
	for s.cur < r {
		s.perm = s.rng.Perm(s.n)
		s.cur++
	}
	return s.perm[pos]
}

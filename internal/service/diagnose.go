package service

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// DiagnoseRequest asks why a scenario's predicted curve bends: which stall
// category dominates at each core count, where dominance flips, and what
// knob of the workload's own schema could relieve the scaling killer. The
// workload/machine fields double as the cluster routing identity, so a
// coordinator shards diagnose requests exactly like predicts.
type DiagnoseRequest struct {
	// APIVersion is the request schema version; "" means current.
	APIVersion string `json:"api_version,omitempty"`
	// Workload and Machine name the scenario (canonical spec grammar).
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// MeasCores is the top of the measured 1..N window; 0 means one
	// processor of the measurement machine.
	MeasCores int `json:"meas_cores,omitempty"`
	// Target is the machine diagnosed for; "" means the measurement machine.
	Target string `json:"target,omitempty"`
	// Scale is the dataset scale of the measurement runs; 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Soft includes software stall categories (§5.3) — without it, sync
	// behaviour surfaces through the hardware load-store events instead.
	Soft bool `json:"soft,omitempty"`
	// Checkpoints is the approximation procedure's c (0 = default 2).
	Checkpoints int `json:"checkpoints,omitempty"`
}

// DiagnoseCategory is one stall category's row of the diagnosis: its class,
// selected fit, growth classification, and share of total predicted stalls
// at each target core count (percent, rounded to 2 decimals — fixed
// formatting keeps responses byte-deterministic and table-friendly).
type DiagnoseCategory struct {
	Category       string    `json:"category"`
	Class          string    `json:"class"`
	Fit            string    `json:"fit,omitempty"`
	Growth         string    `json:"growth"`
	GrowthExponent float64   `json:"growth_exponent"`
	SharePct       []float64 `json:"share_pct"`
}

// DiagnoseCrossover marks a core count where the dominant category changes.
type DiagnoseCrossover struct {
	Cores int    `json:"cores"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// ReliefKnob is the suggested schema parameter to relieve the scaling
// killer, drawn from the workload's own typed schema — never a parameter
// the workload does not accept.
type ReliefKnob struct {
	// Param is the schema key; Action is "lower" or "raise".
	Param  string `json:"param"`
	Action string `json:"action"`
	// Default is the parameter's default in canonical spec formatting;
	// Help is the schema's description.
	Default string `json:"default,omitempty"`
	Help    string `json:"help,omitempty"`
	// DeltaPct estimates the share of predicted stalls this knob can
	// address: the killer's share scaled by how much of the parameter's
	// typed range is still available in Action's direction. Relief
	// candidates are ranked by it; ties keep schema order.
	DeltaPct float64 `json:"delta_pct,omitempty"`
}

// DiagnoseResponse explains one scenario's predicted scaling behaviour.
// Categories are sorted by name and every float is rounded to fixed
// precision, so responses are byte-deterministic.
type DiagnoseResponse struct {
	APIVersion string `json:"api_version"`
	// Workload, Machine and Target are the resolved canonical names.
	Workload  string  `json:"workload"`
	Machine   string  `json:"machine"`
	Target    string  `json:"target"`
	MeasCores int     `json:"meas_cores"`
	Scale     float64 `json:"scale,omitempty"`
	// CacheHit reports that the measurement series was replayed rather
	// than simulated.
	CacheHit bool `json:"cache_hit,omitempty"`
	// TargetCores are the diagnosed core counts; Categories one row per
	// extrapolated stall category, sorted by name.
	TargetCores []int              `json:"target_cores"`
	Categories  []DiagnoseCategory `json:"categories"`
	// Dominant names the largest category at each target core count;
	// Crossovers the points where it changes.
	Dominant   []string            `json:"dominant"`
	Crossovers []DiagnoseCrossover `json:"crossovers,omitempty"`
	// Killer is the category whose growth kills scaling at max cores,
	// KillerSharePct its share of total stalls there.
	Killer         string  `json:"killer"`
	KillerClass    string  `json:"killer_class"`
	KillerGrowth   string  `json:"killer_growth"`
	KillerSharePct float64 `json:"killer_share_pct"`
	// ScalingStop is the predicted core count past which adding cores no
	// longer helps.
	ScalingStop int `json:"scaling_stop"`
	// Relief is the suggested knob (absent when the workload's schema has
	// no parameter relieving the killer's class).
	Relief *ReliefKnob `json:"relief,omitempty"`
	// Summary is the one-line human verdict, e.g. "above 12 cores
	// memcached?skew=3 on Opteron is memory-bound: ...".
	Summary string `json:"summary"`
}

// Diagnose answers a DiagnoseRequest. It assembles the exact option shape
// Predict uses and goes through the same planner memo, so a scenario that
// was already predicted (or swept) diagnoses with zero new fits and zero
// new measurements — the diagnosis itself is pure post-processing of the
// memoized prediction.
func (s *Service) Diagnose(ctx context.Context, req DiagnoseRequest) (*DiagnoseResponse, error) {
	if err := checkVersion(req.APIVersion); err != nil {
		return nil, err
	}
	opt := core.Options{
		UseSoftware: req.Soft,
		Checkpoints: req.Checkpoints,
		Workers:     s.cfg.Workers,
		Gate:        s.sem,
	}
	if err := opt.Validate(); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	w, mm, err := resolve(req.Workload, req.Machine)
	if err != nil {
		return nil, err
	}
	tm := mm
	if req.Target != "" {
		if tm, err = machine.Lookup(req.Target); err != nil {
			return nil, &BadRequestError{Err: err}
		}
	}
	opt.FreqRatio = mm.FreqGHz / tm.FreqGHz
	measCores := req.MeasCores
	if measCores <= 0 {
		measCores = mm.OneProcessorCores()
	}
	scale, err := checkScale(req.Scale)
	if err != nil {
		return nil, err
	}
	targets := sim.CoreRange(tm.NumCores())

	pred, hit, err := s.predicted(ctx, w, mm, measCores, scale, targets, opt)
	if err != nil {
		return nil, err
	}
	diag, err := pred.Diagnose()
	if err != nil {
		return nil, err
	}

	resp := &DiagnoseResponse{
		APIVersion:     APIVersion,
		Workload:       w.Name(),
		Machine:        mm.Name,
		Target:         tm.Name,
		MeasCores:      measCores,
		Scale:          scale,
		CacheHit:       hit,
		Dominant:       diag.Dominant,
		Killer:         diag.Killer,
		KillerClass:    diag.KillerClass,
		KillerGrowth:   string(diag.KillerGrowth),
		KillerSharePct: round2(100 * diag.KillerShare),
		ScalingStop:    diag.ScalingStop,
	}
	resp.TargetCores = make([]int, len(diag.TargetCores))
	for i, c := range diag.TargetCores {
		resp.TargetCores[i] = int(c)
	}
	for _, cd := range diag.Categories {
		row := DiagnoseCategory{
			Category:       cd.Category,
			Class:          cd.Class,
			Growth:         string(cd.Growth),
			GrowthExponent: round3(cd.GrowthExponent),
			SharePct:       make([]float64, len(cd.Shares)),
		}
		if cd.Fit != nil {
			row.Fit = cd.Fit.String()
		}
		for i, sh := range cd.Shares {
			row.SharePct[i] = round2(100 * sh)
		}
		resp.Categories = append(resp.Categories, row)
	}
	for _, x := range diag.Crossovers {
		resp.Crossovers = append(resp.Crossovers, DiagnoseCrossover{Cores: x.Cores, From: x.From, To: x.To})
	}
	resp.Relief = reliefFor(w.Name(), resp.KillerClass, resp.KillerSharePct)
	resp.Summary = diagnoseSummary(resp)
	return resp, nil
}

// reliefKnobs maps schema parameter keys to the bottleneck classes they can
// relieve and the direction that relieves them. The table is consulted
// against the workload's *own* schema (workloads.Families), so a knob is
// only ever suggested for a workload that actually accepts it.
var reliefKnobs = map[string]struct {
	classes []string
	action  string
}{
	"skew":      {[]string{core.ClassSync, core.ClassMemory}, "lower"},
	"setpct":    {[]string{core.ClassSync, core.ClassMemory}, "lower"},
	"writepct":  {[]string{core.ClassSync, core.ClassMemory}, "lower"},
	"valsize":   {[]string{core.ClassMemory}, "lower"},
	"chain":     {[]string{core.ClassMemory}, "lower"},
	"levels":    {[]string{core.ClassMemory}, "lower"},
	"batch":     {[]string{core.ClassSync}, "raise"},
	"flows":     {[]string{core.ClassSync, core.ClassMemory}, "raise"},
	"centroids": {[]string{core.ClassMemory, core.ClassSync}, "raise"},
}

// reliefFor ranks the workload family's schema parameters whose knob entry
// relieves the killer's class by the share of predicted stalls each could
// plausibly address — the killer's share scaled by the parameter's remaining
// headroom on its typed axis, using the same unit normalization the explore
// planner measures parameter-space distance with — and returns the best one,
// or nil (fixed workloads, compute-bound scenarios). Ties on the rounded
// delta keep schema declaration order, which was the old selection rule.
func reliefFor(workload, killerClass string, killerSharePct float64) *ReliefKnob {
	family := spec.Family(workload)
	for _, f := range workloads.Families() {
		if f.Name != family {
			continue
		}
		axes := (&spec.Schema{Params: f.Params}).Axes()
		var best *ReliefKnob
		for i, p := range f.Params {
			knob, ok := reliefKnobs[p.Key]
			if !ok {
				continue
			}
			relieves := false
			for _, cls := range knob.classes {
				if cls == killerClass {
					relieves = true
					break
				}
			}
			if !relieves {
				continue
			}
			// Headroom in [0, 1]: how far the default sits from the bound
			// Action moves it towards. A default pinned at that bound has
			// nothing left to give and scores zero.
			headroom := axes[i].Unit(axes[i].Default)
			if knob.action == "raise" {
				headroom = 1 - headroom
			}
			delta := round2(killerSharePct * headroom)
			if best != nil && delta <= best.DeltaPct {
				continue
			}
			best = &ReliefKnob{
				Param:    p.Key,
				Action:   knob.action,
				Default:  p.Format(p.Default),
				Help:     p.Help,
				DeltaPct: delta,
			}
		}
		return best
	}
	return nil
}

// diagnoseSummary renders the one-line verdict from the already-rounded
// response fields, so the summary and the structured fields can never
// disagree.
func diagnoseSummary(resp *DiagnoseResponse) string {
	last := len(resp.Dominant) - 1
	prefix, scope := "", ""
	if resp.Dominant[last] == resp.Killer {
		// The killer dominates the curve's tail: say since when. When it
		// never dominates, the plain verdict stands without a scope.
		i := last
		for i > 0 && resp.Dominant[i-1] == resp.Killer {
			i--
		}
		if i > 0 {
			prefix = fmt.Sprintf("above %d cores ", resp.TargetCores[i])
		} else {
			scope = " at every core count"
		}
	}
	scenario := resp.Workload + " on " + resp.Target
	s := fmt.Sprintf("%s%s is %s-bound%s: %s holds %.2f%% of predicted stalls at %d cores with %s growth",
		prefix, scenario, resp.KillerClass, scope, resp.Killer,
		resp.KillerSharePct, resp.TargetCores[last], resp.KillerGrowth)
	if resp.Relief != nil {
		verb := "lowering"
		if resp.Relief.Action == "raise" {
			verb = "raising"
		}
		s += fmt.Sprintf("; %s `%s` relieves it", verb, resp.Relief.Param)
	}
	return s
}

// diagnoseRequestFromQuery builds a DiagnoseRequest from GET /v1/diagnose
// query parameters — the same fields the POST body carries, so both verbs
// validate and answer identically.
func diagnoseRequestFromQuery(q url.Values) (DiagnoseRequest, error) {
	req := DiagnoseRequest{
		APIVersion: q.Get("api_version"),
		Workload:   q.Get("workload"),
		Machine:    q.Get("machine"),
		Target:     q.Get("target"),
	}
	if v := q.Get("meas_cores"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, badRequest("bad meas_cores %q: not an integer", v)
		}
		req.MeasCores = n
	}
	if v := q.Get("scale"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return req, badRequest("bad scale %q: not a number", v)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// The request travels as a JSON body, which has no spelling
			// for non-finite numbers.
			return req, badRequest("bad scale %q: not a finite number", v)
		}
		req.Scale = f
	}
	if v := q.Get("soft"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, badRequest("bad soft %q: not a boolean", v)
		}
		req.Soft = b
	}
	if v := q.Get("checkpoints"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, badRequest("bad checkpoints %q: not an integer", v)
		}
		req.Checkpoints = n
	}
	return req, nil
}

// round2 and round3 are the response's fixed float precisions: percentages
// to 2 decimals, exponents to 3. Negative zero is normalized to zero so a
// tiny negative exponent cannot print as "-0" in the JSON.
func round2(x float64) float64 {
	r := math.Round(x*100) / 100
	if r == 0 {
		return 0
	}
	return r
}

func round3(x float64) float64 {
	r := math.Round(x*1000) / 1000
	if r == 0 {
		return 0
	}
	return r
}

package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeRequest pins the request-decoding contract of the HTTP layer
// (mirroring counters' FuzzDecodeSeries): the strict decoder behind every
// POST /v1/* endpoint must never panic on malformed bytes, anything it
// accepts must re-encode, and the cheap validation helpers (version check,
// core-schedule parsing) must be total over accepted requests. An accepted
// schedule lists distinct core counts, so it is never longer than the
// machine.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"api_version":"v1","workload":"intruder","machine":"Haswell","scale":0.05,"compare":true}`,
		`{"workload":"genome","machine":"Haswell","scale":0.05,"soft":true,"bootstrap":50,"ci_level":90}`,
		`{"workloads":["intruder","genome"],"machines":["Haswell"],"scale":0.05,"workers":3}`,
		`{"workload":"intruder","machine":"Haswell","cores":"1-2","scale":0.05}`,
		`{"workload":"intruder","machine":"Haswell","cores":"1,2,4,8"}`,
		`{"workload":"intruder","machine":"Haswell","cores":"all"}`,
		`{"cores":"0-4"}`,
		`{"cores":"-"}`,
		`{"cores":"1-"}`,
		`{"cores":"9999999999999999999999"}`,
		`{"cores":"1-4,1-4"}`,
		`{"cores":"3,1-3"}`,
		`{"api_version":"v9"}`,
		`{"series":{"version":1,"workload":"w","machine":"m"}}`,
		`{"series":"not an object"}`,
		`{"bootstrap":-1,"ci_level":1e308}`,
		`{"wrkload":"typo"}`,
		`{"workload":"intruder","machine":"Haswell"}   trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// decode mirrors handleJSON: strict field checking, one document.
		decode := func(into any) error {
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			return dec.Decode(into)
		}

		var pr PredictRequest
		if err := decode(&pr); err == nil {
			checkVersion(pr.APIVersion)
			if _, err := json.Marshal(pr); err != nil {
				t.Fatalf("accepted PredictRequest does not re-encode: %v", err)
			}
		}
		var sr SweepRequest
		if err := decode(&sr); err == nil {
			checkVersion(sr.APIVersion)
			if _, err := json.Marshal(sr); err != nil {
				t.Fatalf("accepted SweepRequest does not re-encode: %v", err)
			}
		}
		var cr CollectRequest
		if err := decode(&cr); err == nil {
			checkVersion(cr.APIVersion)
			if cores, err := parseCores(cr.Cores, 48); err == nil {
				if len(cores) > 48 {
					t.Fatalf("parseCores(%q) accepted %d entries on a 48-core machine", cr.Cores, len(cores))
				}
				seen := map[int]bool{}
				for _, c := range cores {
					if c < 1 || seen[c] {
						t.Fatalf("parseCores(%q) accepted core count %d (listed before: %v)", cr.Cores, c, seen[c])
					}
					seen[c] = true
				}
			}
			if _, err := json.Marshal(cr); err != nil {
				t.Fatalf("accepted CollectRequest does not re-encode: %v", err)
			}
		}
		var cv CurveRequest
		if err := decode(&cv); err == nil {
			checkVersion(cv.APIVersion)
			parseCores(cv.Cores, 48)
		}
	})
}

// FuzzDecodeExploreRequest extends the decoding contract to the explore
// endpoint: the strict decoder must never panic, anything it accepts must
// re-encode, and the cheap validation helpers must be total over accepted
// requests (the planner itself is exercised by the explore tests — fuzzing
// stops at the decode/validate boundary so iterations stay cheap).
func FuzzDecodeExploreRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"workload":"memcached","machine":"Haswell"}`,
		`{"api_version":"v1","workload":"memcached?skew=1.5,skew=3,setpct=0,setpct=20","machine":"Haswell","scale":0.05}`,
		`{"workload":"memcached","machine":"Haswell","budget":3,"target_band_pct":10,"round_size":2}`,
		`{"workload":"memcached","machine":"Haswell","bootstrap":25,"ci_level":90,"seed":7,"workers":4}`,
		`{"workload":"memcached","machine":"Haswell","budget":-2}`,
		`{"workload":"memcached","machine":"Haswell","target_band_pct":-5}`,
		`{"workload":"memcached","machine":"Haswell","round_size":-1}`,
		`{"workload":"memcached?skew=NaN","machine":"Haswell"}`,
		`{"budgit":3}`,
		`{"api_version":"v9","workload":"memcached","machine":"Haswell"}`,
		`{"workload":"memcached","machine":"Haswell"}   trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var er ExploreRequest
		if err := dec.Decode(&er); err != nil {
			return
		}
		checkVersion(er.APIVersion)
		cellOptions(CellRequest{Soft: er.Soft, Bootstrap: er.Bootstrap, CILevel: er.CILevel, Seed: er.Seed}).Fingerprint()
		canonicalRegion(er.Workload)
		if _, err := json.Marshal(er); err != nil {
			t.Fatalf("accepted ExploreRequest does not re-encode: %v", err)
		}
	})
}

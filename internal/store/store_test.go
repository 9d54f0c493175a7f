package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/counters"
)

// ctx is the background context shared by tests that don't exercise
// cancellation.
var ctx = context.Background()

func sampleSeries(workload string, cores int) *counters.Series {
	s := &counters.Series{Workload: workload, Machine: "Opteron", Scale: 0.5}
	for c := 1; c <= cores; c++ {
		s.Samples = append(s.Samples, counters.Sample{
			Cores: c, Seconds: 1.0 / float64(c), Cycles: 2.1e9 / float64(c),
			HW:   map[string]float64{"0D5h": 1e8 * float64(c)},
			Soft: map[string]float64{counters.SoftTxAborted: 1e6 * float64(c*c)},
		})
	}
	return s
}

func testKey(workload string) Key {
	return Key{Workload: workload, Machine: "Opteron", MaxCores: 4, Scale: 0.5, Engine: "sim-test"}
}

// samplePath is where the store files k's sample at the given core count.
func samplePath(st *Store, k Key, cores int) string {
	return filepath.Join(st.Dir(), k.sample(cores).Hash()+".json")
}

func TestStoreHitMissRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("intruder")
	if _, ok := st.Get(ctx, k); ok {
		t.Fatal("empty store should miss")
	}
	want := sampleSeries("intruder", 4)
	if err := st.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(ctx, k)
	if !ok {
		t.Fatal("put then get should hit")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("cached series differs:\nwant %+v\ngot  %+v", want, got)
	}
	// Every sample is its own entry: a shorter window and each sample
	// read back alone.
	short := k
	short.MaxCores = 2
	if got, ok := st.Get(ctx, short); !ok || !reflect.DeepEqual(got.Samples, want.Samples[:2]) {
		t.Error("the 1..2 window of a stored 1..4 window should hit")
	}
	for _, smp := range want.Samples {
		if got, ok := st.GetSample(ctx, k.sample(smp.Cores)); !ok || !reflect.DeepEqual(got, smp) {
			t.Errorf("sample at %d cores did not round-trip", smp.Cores)
		}
	}
	// A longer window misses, and so does a different input.
	long := k
	long.MaxCores = 5
	if _, ok := st.Get(ctx, long); ok {
		t.Error("a window with an unstored sample should miss")
	}
	other := k
	other.Scale = 1
	if _, ok := st.Get(ctx, other); ok {
		t.Error("different scale should miss")
	}
}

func TestKeyHashStableAndDistinct(t *testing.T) {
	k := testKey("genome").sample(1)
	if k.Hash() != k.Hash() {
		t.Error("hash not deterministic")
	}
	seen := map[string]SampleKey{}
	for _, variant := range []SampleKey{
		k,
		{Workload: "genome2", Machine: "Opteron", Scale: 0.5, Engine: "sim-test", Cores: 1},
		{Workload: "genome", Machine: "Xeon20", Scale: 0.5, Engine: "sim-test", Cores: 1},
		{Workload: "genome", Machine: "Opteron", Scale: 0.25, Engine: "sim-test", Cores: 1},
		{Workload: "genome", Machine: "Opteron", Scale: 0.5, Engine: "sim-v2", Cores: 1},
		{Workload: "genome", Machine: "Opteron", Scale: 0.5, Engine: "sim-test", Cores: 2},
	} {
		h := variant.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %+v and %+v", prev, variant)
		}
		seen[h] = variant
	}
}

func TestStoreCorruptedFileFallsBackToCollection(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("yada")
	if err := st.Put(k, sampleSeries("yada", 4)); err != nil {
		t.Fatal(err)
	}
	// Corrupt one sample file in place (e.g. a crashed writer or disk error).
	if err := os.WriteFile(samplePath(st, k, 3), []byte(`{"format":2,"key":{"workload":"ya`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetSample(ctx, k.sample(3)); ok {
		t.Fatal("corrupted sample should read as a miss")
	}
	if _, ok := st.Get(ctx, k); ok {
		t.Fatal("a window with a corrupted sample should read as a miss")
	}
	if _, ok := st.GetSample(ctx, k.sample(2)); !ok {
		t.Error("corruption of one sample must not cost its neighbours")
	}
	// Re-collection repopulates instead of erroring.
	if err := st.PutSample(k.sample(3), sampleSeries("yada", 4).Samples[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(ctx, k); !ok {
		t.Error("re-collection should have repaired the window")
	}
}

func TestStoreRejectsKeyMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("kmeans")
	if err := st.Put(k, sampleSeries("kmeans", 4)); err != nil {
		t.Fatal(err)
	}
	// Move a sample to another input's address: the embedded key no longer
	// matches what the reader asked for, so it must miss.
	other := testKey("ssca2")
	if err := os.Rename(samplePath(st, k, 1), samplePath(st, other, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetSample(ctx, other.sample(1)); ok {
		t.Error("entry with mismatched embedded key should miss")
	}
	// And a sample filed under another core count of the same input.
	if err := os.Rename(samplePath(st, k, 2), samplePath(st, k, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetSample(ctx, k.sample(1)); ok {
		t.Error("a sample filed under another core count should miss")
	}
}

// A file in the previous store format — one whole series under a window
// key — or an envelope of another format version, found at a sample's
// path, reads as a miss and is never decoded as a sample; the next write
// replaces it.
func TestOtherFormatAtSamplePathIsAMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("genome")
	k.MaxCores = 1
	one := sampleSeries("genome", 1)
	doc, err := counters.EncodeSeries(one)
	if err != nil {
		t.Fatal(err)
	}
	oldSeries, err := json.MarshalIndent(struct {
		Key    Key             `json:"key"`
		Series json.RawMessage `json:"series"`
	}{k, doc}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	version1, err := json.Marshal(&fileJSON{Format: 1, Key: k.sample(1), Series: doc})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{{"series-format file", oldSeries}, {"format 1 envelope", version1}} {
		if err := os.WriteFile(samplePath(st, k, 1), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.GetSample(ctx, k.sample(1)); ok {
			t.Errorf("%s read as a sample", c.name)
		}
		if _, ok := st.Get(ctx, k); ok {
			t.Errorf("%s read as a window", c.name)
		}
	}
	if err := st.Put(k, one); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(ctx, k); !ok || !reflect.DeepEqual(got, one) {
		t.Error("a write should replace the other-format file")
	}
}

func TestNilStoreIsAlwaysMiss(t *testing.T) {
	var st *Store
	k := testKey("nil")
	if err := st.Put(k, sampleSeries("nil", 1)); err != nil {
		t.Error("nil store Put should be a no-op, got", err)
	}
	if _, ok := st.Get(ctx, k); ok {
		t.Error("nil store should miss")
	}
	if _, ok := st.GetSample(ctx, k.sample(1)); ok {
		t.Error("nil store should miss a sample")
	}
	if st.Dir() != "" {
		t.Error("nil store should have no directory")
	}
}

// A cancelled context reads as a miss without touching the entry.
func TestGetHonorsContext(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("cancelled")
	if err := st.Put(k, sampleSeries("cancelled", 2)); err != nil {
		t.Fatal(err)
	}
	k.MaxCores = 2
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := st.Get(done, k); ok {
		t.Error("cancelled Get should miss")
	}
	if _, ok := st.FindPrefix(done, k); ok {
		t.Error("cancelled FindPrefix should miss")
	}
	// The entry is still there for a live context.
	if _, ok := st.Get(ctx, k); !ok {
		t.Error("entry should survive a cancelled read")
	}
}

// Package store persists measured samples on disk so the expensive
// "measure at few cores" phase of ESTIMA simulates each sample once per
// (workload, machine, scale, engine, core count) and every later
// prediction, experiment or benchmark process replays it from cache. A
// series of any core schedule — a 1..K window, its 1..N comparison, a
// sparse "1,3" — is assembled from the samples of its core counts, so
// schedules that overlap share their stored samples.
//
// The cache is content-addressed: a sample key's canonical form is hashed
// into the file name, and each file embeds the format version and the key
// it was written for, so a read verifies it got the sample it asked for.
// Writes are atomic (temp file + rename) and reads are corruption-tolerant
// — a truncated, garbled, mismatched or other-format file is treated as a
// miss rather than an error, falling back to re-collection, whose write
// replaces it.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/counters"
)

// format is the version of the on-disk sample envelope. Bump it whenever
// the envelope or the sample encoding changes: files of any other version
// read as misses and are re-collected.
const format = 2

// SampleKey identifies one measured sample.
type SampleKey struct {
	// Workload and Machine name the simulated benchmark and machine in
	// canonical spec form (internal/spec): a bare name for an all-defaults
	// scenario, `family?key=val,...` for a parameterized variant. Callers
	// resolve names through workloads.Lookup / machine.Lookup before keying,
	// so equivalent spellings of one scenario share a single cache entry.
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	// Scale is the effective dataset scale of the run.
	Scale float64 `json:"scale"`
	// Engine is the collector's version tag (sim.EngineVersion for the
	// simulator; perf-based collectors use their own), so engine changes
	// invalidate cached samples.
	Engine string `json:"engine"`
	// Cores is the measured core count.
	Cores int `json:"cores"`
}

// Hash returns the sample's content address: the hex SHA-256 of its
// canonical form, which doubles as the cache file's base name.
func (k SampleKey) Hash() string {
	return hash(k.Workload + "\x00" + k.Machine + "\x00" + strconv.FormatFloat(k.Scale, 'g', -1, 64) +
		"\x00" + k.Engine + "\x00" + strconv.Itoa(k.Cores))
}

// Key identifies the contiguous measurement window 1..MaxCores of one
// input; its fields mean what SampleKey's do.
type Key struct {
	Workload string  `json:"workload"`
	Machine  string  `json:"machine"`
	MaxCores int     `json:"max_cores"`
	Scale    float64 `json:"scale"`
	Engine   string  `json:"engine"`
}

// Hash returns the window's content address, the hex SHA-256 of its
// canonical form.
func (k Key) Hash() string {
	return hash(k.Workload + "\x00" + k.Machine + "\x00" + strconv.Itoa(k.MaxCores) +
		"\x00" + strconv.FormatFloat(k.Scale, 'g', -1, 64) + "\x00" + k.Engine)
}

// sample returns the key of the window's sample at the given core count.
func (k Key) sample(cores int) SampleKey {
	return SampleKey{Workload: k.Workload, Machine: k.Machine, Scale: k.Scale, Engine: k.Engine, Cores: cores}
}

func hash(id string) string {
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:])
}

// fileJSON is the on-disk envelope of one sample: the format version, the
// key it was measured for, and the sample as a one-sample versioned series
// document (counters.EncodeSeries bytes).
type fileJSON struct {
	Format int             `json:"format"`
	Key    SampleKey       `json:"key"`
	Series json.RawMessage `json:"series"`
}

// Store is an on-disk sample cache rooted at one directory. A nil *Store is
// valid and behaves as an always-miss, discard-writes cache, so callers can
// thread an optional store without nil checks.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (st *Store) Dir() string {
	if st == nil {
		return ""
	}
	return st.dir
}

// GetSample returns the cached sample for the key, or false on a miss.
// Unreadable, corrupted, other-format or key-mismatched files count as
// misses, and so does every read under a cancelled ctx.
func (st *Store) GetSample(ctx context.Context, k SampleKey) (counters.Sample, bool) {
	if st == nil || ctx.Err() != nil {
		return counters.Sample{}, false
	}
	data, err := os.ReadFile(filepath.Join(st.dir, k.Hash()+".json"))
	if err != nil {
		return counters.Sample{}, false
	}
	var env fileJSON
	if err := json.Unmarshal(data, &env); err != nil || env.Format != format || env.Key != k {
		return counters.Sample{}, false
	}
	s, err := counters.DecodeSeries(env.Series)
	if err != nil || len(s.Samples) != 1 || s.Samples[0].Cores != k.Cores {
		return counters.Sample{}, false
	}
	return s.Samples[0], true
}

// PutSample atomically writes the sample under the key. A nil store
// discards the write.
func (st *Store) PutSample(k SampleKey, smp counters.Sample) error {
	if st == nil {
		return nil
	}
	doc, err := counters.EncodeSeries(&counters.Series{Workload: k.Workload, Machine: k.Machine,
		Scale: k.Scale, Samples: []counters.Sample{smp}})
	if err != nil {
		return err
	}
	data, err := json.Marshal(&fileJSON{Format: format, Key: k, Series: doc})
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}
	tmp, err := os.CreateTemp(st.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry: %w", firstErr(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), filepath.Join(st.dir, k.Hash()+".json")); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get returns the window's series assembled from its stored samples, or
// (nil, false) if any of them is missing.
func (st *Store) Get(ctx context.Context, k Key) (*counters.Series, bool) {
	s := &counters.Series{Workload: k.Workload, Machine: k.Machine, Scale: k.Scale}
	for c := 1; c <= k.MaxCores; c++ {
		smp, ok := st.GetSample(ctx, k.sample(c))
		if !ok {
			return nil, false
		}
		s.Samples = append(s.Samples, smp)
	}
	return s, true
}

// Put stores every sample of s under k's input at the sample's own core
// count (k.MaxCores plays no part). A nil store discards the writes.
func (st *Store) Put(k Key, s *counters.Series) error {
	for _, smp := range s.Samples {
		if err := st.PutSample(k.sample(smp.Cores), smp); err != nil {
			return err
		}
	}
	return nil
}

// FindPrefix is Get.
//
// Deprecated: samples are stored individually, so every window is a Get.
func (st *Store) FindPrefix(ctx context.Context, k Key) (*counters.Series, bool) {
	return st.Get(ctx, k)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

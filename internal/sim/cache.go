package sim

import "math/bits"

// Cache tags pack the line address and a reset epoch into one word, so one
// load+compare answers a probe and resetting an array between runs is a
// single epoch bump instead of a memclr. tagBits bounds the line address:
// with maxRegions regions of at most 2^regionShift bytes each, every line is
// below 2^(regionShift-6+maxRegionBits+1) < 2^tagBits.
const (
	cacheTagBits = 48
	cacheEpoch   = 1 << cacheTagBits
)

// cacheEnt is one direct-mapped slot: the packed epoch|line tag and the
// coherence version the line was cached at, in a single 16-byte struct so a
// probe touches one host cache line instead of two parallel arrays.
type cacheEnt struct {
	combo uint64 // epoch<<cacheTagBits | line; mismatched epoch = empty slot
	ver   uint32
	_     uint32
}

// cacheArray is a direct-mapped tag array used for the private L1/L2 caches
// and the shared per-chip LLC. Each entry remembers the coherence version it
// cached; a probe with a newer version is a coherence miss even if the tag
// matches, which is how remote writes invalidate local copies without an
// explicit invalidation walk.
type cacheArray struct {
	ents  []cacheEnt
	epoch uint64 // current epoch, pre-shifted by cacheTagBits
	mask  uint64 // len(ents)-1 when the size is a power of two
	magic uint64 // ceil(2^64/len) when fastmod is enabled, else 0
	pow2  bool
}

// ensure readies the array for a run with n slots whose line addresses all
// lie below maxLine. A changed geometry reallocates the entries; otherwise
// they are kept and emptied in O(1) by advancing the epoch, so stale
// entries stop matching (an epoch wrap, once per 2^16 runs, falls back to a
// full clear).
//
// It then picks the slot modulo: a Lemire-style fastmod when it is provably
// exact for every line below maxLine. With magic = ceil(2^64/d) and
// s = d - 2^64 mod d, the identity magic*n mod 2^64 = (2^64*(n mod d) + n*s)/d
// holds whenever n*s < 2^64, and then the high word of (magic*n mod 2^64)*d
// is exactly n mod d; s <= d-1 makes maxLine*(d-1) < 2^64 the sufficient
// condition. maxLine comes from the run's region count, so a pathological
// heap simply keeps the division.
func (c *cacheArray) ensure(n int, maxLine uint64) {
	n = max(n, 1)
	if len(c.ents) != n {
		*c = cacheArray{ents: make([]cacheEnt, n), pow2: n&(n-1) == 0, mask: uint64(n - 1)}
	}
	c.epoch += cacheEpoch
	if c.epoch == 0 {
		clear(c.ents)
		c.epoch = cacheEpoch
	}
	c.magic = 0
	if d := uint64(n); !c.pow2 && d >= 2 && maxLine <= ^uint64(0)/(d-1) {
		c.magic = ^uint64(0)/d + 1
	}
}

// slot returns the direct-mapped slot of a line. All preset L1/L2 sizes are
// powers of two (one mask); LLC sizes generally are not, so their modulo is
// strength-reduced to two multiplications when ensure proved the run's line
// addresses small enough for that to be exact.
func (c *cacheArray) slot(line uint64) uint64 {
	if c.pow2 {
		return line & c.mask
	}
	if c.magic != 0 {
		hi, _ := bits.Mul64(c.magic*line, uint64(len(c.ents)))
		return hi
	}
	return line % uint64(len(c.ents))
}

// fillAt installs line at the given version into slot i, evicting whatever
// occupied it (direct-mapped).
func (c *cacheArray) fillAt(i uint64, line uint64, ver uint32) {
	c.ents[i] = cacheEnt{combo: c.epoch | line, ver: ver}
}

// dirEntry is the coherence-directory state of one shared cache line. The
// zero value means clean, unlocked and unshared, so a directory page resets
// with one clear: writer and lock owner are stored +1 (0 = none).
type dirEntry struct {
	// writer1 is 1 + the core whose cache holds the line dirty (0 if clean).
	writer1 int16
	// lock1 is 1 + the STM thread holding the line's eager write lock
	// (0 when unlocked).
	lock1 int16
	// version counts committed writes; caches remember the version they
	// filled at, so bumping it invalidates every cached copy.
	version uint32
	// sharers is a bitmap of cores that have read the line since the last
	// write (the machines modelled have ≤ 64 cores).
	sharers uint64
}

// socketBW is a leaky-bucket model of one socket's memory controller: the
// queue level drains at the controller's service rate and every DRAM access
// adds one line. The delay an access sees is the queue ahead of it. Time is
// taken from the accessing thread's own clock; because scheduler batching
// lets thread clocks diverge by up to one quantum, the bucket only drains on
// forward time steps and never charges a thread for another thread's
// future.
type socketBW struct {
	level    float64
	lastTime int64
}

// enqueue records one line of demand at the given thread-local time and
// returns the queueing delay in cycles. bw is the service rate in
// lines/cycle, serv the per-line service time in cycles.
func (s *socketBW) enqueue(now int64, bw, serv float64) float64 {
	if dt := now - s.lastTime; dt > 0 {
		s.level -= float64(dt) * bw
		if s.level < 0 {
			s.level = 0
		}
		s.lastTime = now
	}
	delay := s.level * serv
	s.level++
	return delay
}

// Directory page geometry: lines of one region map to dense fixed-size
// pages, allocated on first touch, so a line resolves to its entry with two
// shifts and two indexes — no hashing, no per-entry allocation.
const (
	dirPageBits  = 12
	dirPageLines = 1 << dirPageBits
	// dirRegionBits is the width of a region's line-offset space
	// (regionShift - 6 line-address bits per region).
	dirRegionBits = regionShift - 6
)

// dirPage is one dense span of directory entries. Pages are recycled across
// runs through the directory's free list; a recycled page is always zeroed
// (= all lines clean), which the +1 sentinel encoding of dirEntry makes a
// plain clear.
type dirPage [dirPageLines]dirEntry

// directory tracks the coherence and STM state of shared lines. Private
// regions never enter the directory. Region bases are (id+1)<<regionShift,
// so a line's region index and page index fall out of its high bits.
type directory struct {
	regions [][]*dirPage // per region ID: page table, nil until touched
	used    []*dirPage   // pages handed out since the last reset
	free    []*dirPage   // zeroed pages ready for reuse
}

// reset recycles every touched page and resizes the region table for a heap
// with nregions regions. Cost is proportional to the pages the previous run
// actually touched. It clears every page table it keeps, so a table holds
// only nils past its length and entrySlow can resize it into empty slots.
func (d *directory) reset(nregions int) {
	for _, pg := range d.used {
		*pg = dirPage{}
	}
	d.free = append(d.free, d.used...)
	d.used = d.used[:0]
	d.regions = resize(d.regions, nregions)
	for i, pt := range d.regions {
		clear(pt)
		d.regions[i] = pt[:0]
	}
}

// entry returns the directory entry for line, materializing its page on
// first touch.
func (d *directory) entry(line uint64) *dirEntry {
	rid := int(line>>dirRegionBits) - 1
	off := line & (1<<dirRegionBits - 1)
	pi := int(off >> dirPageBits)
	pt := d.regions[rid]
	if pi >= len(pt) || pt[pi] == nil {
		return d.entrySlow(rid, pi, off)
	}
	return &pt[pi][off&(dirPageLines-1)]
}

func (d *directory) entrySlow(rid, pi int, off uint64) *dirEntry {
	pt := d.regions[rid]
	if pi >= len(pt) {
		pt = resize(pt, pi+1)
	}
	pg := pt[pi]
	if pg == nil {
		if n := len(d.free); n > 0 {
			pg = d.free[n-1]
			d.free = d.free[:n-1]
		} else {
			pg = new(dirPage)
		}
		d.used = append(d.used, pg)
		pt[pi] = pg
	}
	d.regions[rid] = pt
	return &pg[off&(dirPageLines-1)]
}

// lookup returns the entry if its page exists, without creating one.
func (d *directory) lookup(line uint64) *dirEntry {
	rid := int(line>>dirRegionBits) - 1
	if rid < 0 || rid >= len(d.regions) {
		return nil
	}
	off := line & (1<<dirRegionBits - 1)
	pi := int(off >> dirPageBits)
	pt := d.regions[rid]
	if pi >= len(pt) || pt[pi] == nil {
		return nil
	}
	return &pt[pi][off&(dirPageLines-1)]
}

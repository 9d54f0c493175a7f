package sim

import "fmt"

// regionShift places the region index in the high bits of every simulated
// address, so the engine can classify an address in O(1).
const regionShift = 40

// lineBytes is the cache line size.
const lineBytes = 64

// maxRegions bounds the heap's region table so that every line address fits
// the cache arrays' packed epoch|line tags: the largest line of region
// id maxRegions-1 is below (maxRegions+1)<<(regionShift-6) < 2^cacheTagBits.
const maxRegions = 1 << 13

// Interleaved marks a region whose pages are distributed round-robin across
// all chips' memory controllers (the placement big parallel datasets get
// from first-touch initialization or numactl --interleave).
const Interleaved = -1

// Region is one simulated allocation: a contiguous address range with
// sharing and NUMA-placement metadata.
type Region struct {
	// ID indexes the heap's region table and the high address bits.
	ID int
	// Name labels the region in traces and bottleneck reports.
	Name string
	// Base is the first simulated address of the region.
	Base uint64
	// Size is the allocated length in bytes.
	Size uint64
	// Shared marks regions accessed by more than one thread; only shared
	// regions pay coherence-directory costs.
	Shared bool
	// HomeChip is the chip whose memory controller services misses to this
	// region, or Interleaved for round-robin placement across chips.
	HomeChip int
}

// Addr returns the simulated address at the given byte offset, wrapping at
// the region size so synthetic index arithmetic can never escape the region.
func (r Region) Addr(off uint64) uint64 {
	if r.Size == 0 {
		return r.Base
	}
	return r.Base + off%r.Size
}

// Heap is the simulated allocator. It hands out non-overlapping address
// ranges tagged with region metadata and tracks the total footprint for the
// weak-scaling experiments.
type Heap struct {
	regions []Region
}

// Alloc creates a new region of the given size. homeChip places the region
// in NUMA space: a chip index for node-local placement (small hot
// structures, lock words), or Interleaved to distribute the region's lines
// across all memory controllers (large datasets).
func (h *Heap) Alloc(name string, size uint64, shared bool, homeChip int) Region {
	if size == 0 {
		size = lineBytes
	}
	if homeChip < 0 {
		homeChip = Interleaved
	}
	id := len(h.regions)
	if id >= maxRegions {
		panic(fmt.Sprintf("sim: heap exceeds %d regions (workload allocates per-element?)", maxRegions))
	}
	r := Region{
		ID:       id,
		Name:     name,
		Base:     uint64(id+1) << regionShift,
		Size:     size,
		Shared:   shared,
		HomeChip: homeChip,
	}
	h.regions = append(h.regions, r)
	return r
}

// Footprint returns the total allocated bytes.
func (h *Heap) Footprint() uint64 {
	var total uint64
	for _, r := range h.regions {
		total += r.Size
	}
	return total
}

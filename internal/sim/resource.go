package sim

import "fmt"

// Resource models a bandwidth-regulated component: a DRAM channel, a DRAM
// cache channel, or an inter-socket link. Transfers occupy the resource for
// bytes/bandwidth cycles; a transfer that arrives while the resource is busy
// queues behind the in-flight ones. This is the occupancy model the C3D
// simulator uses to capture memory-controller and QPI congestion (§II-B).
//
// Because the machine model executes whole transactions atomically, a single
// transaction may reserve resources at increasing future timestamps (request
// leg now, response leg a few hundred cycles later), while another core's
// transaction reserves the same resource at an earlier absolute time shortly
// afterwards. The resource therefore keeps a short list of reservations in
// simulated-time order and places each new transfer into the earliest free
// interval at or after its arrival time, which is what an event-driven
// simulator processing the legs in true time order would do. Reservations far
// in the past (beyond any transaction's span) are pruned.
type Resource struct {
	name string
	// bytesPerCycle is the service rate. Zero means infinite bandwidth
	// (transfers never queue), which is how the Fig. 2 idealised
	// configurations are modelled.
	bytesPerCycle float64

	reservations []interval // sorted by start time
	maxNow       Time
	lastPrune    Time

	// Statistics.
	transfers   uint64
	bytesServed uint64
	busyCycles  uint64
	waitCycles  uint64
}

type interval struct{ start, end Time }

// pruneHorizon is how far behind the latest observed request time a
// reservation must end before it can be forgotten. It only needs to exceed
// the largest span of a single transaction (a few hundred cycles); 2K cycles
// leaves a comfortable margin while keeping the reservation list short.
const pruneHorizon = 2048

// pruneInterval is how much the observed request time must advance before the
// reservation list is swept again; pruning on every acquisition would cost
// more than it saves.
const pruneInterval = 512

// NewResource builds a resource with the given service rate in bytes per
// cycle. rate <= 0 models infinite bandwidth.
func NewResource(name string, bytesPerCycle float64) *Resource {
	return &Resource{name: name, bytesPerCycle: bytesPerCycle}
}

// GBsToBytesPerCycle converts a bandwidth in GB/s into bytes per core cycle
// at the default 3 GHz clock. Table II quotes channel and link bandwidths in
// GB/s (e.g. 12.8 GB/s per memory channel, 25.6 GB/s per QPI link).
func GBsToBytesPerCycle(gbPerSec float64) float64 {
	const cyclesPerSec = DefaultCyclesPerNs * 1e9
	return gbPerSec * 1e9 / cyclesPerSec
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Infinite reports whether the resource models infinite bandwidth.
func (r *Resource) Infinite() bool { return r.bytesPerCycle <= 0 }

// SetInfinite switches the resource to infinite bandwidth (used by the
// idealised configurations of Fig. 2).
func (r *Resource) SetInfinite() { r.bytesPerCycle = 0 }

func (r *Resource) serviceTime(bytes int) Cycles {
	service := Cycles(float64(bytes)/r.bytesPerCycle + 0.5)
	if service == 0 && bytes > 0 {
		service = 1
	}
	return service
}

// place finds the earliest start >= now at which a transfer of the given
// service duration fits between existing reservations, returning the start
// time and the index at which the new interval should be inserted.
//
// Reservations never overlap, so their ends ascend with their starts: a
// binary search skips every reservation ending at or before now (the scan
// below would skip them one by one), and the scan resumes from the first
// reservation that can still collide.
func (r *Resource) place(now Time, service Cycles) (Time, int) {
	lo, hi := 0, len(r.reservations)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.reservations[mid].end <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := now
	for i := lo; i < len(r.reservations); i++ {
		res := r.reservations[i]
		if res.end <= start {
			continue
		}
		if res.start >= start.Add(service) {
			// The transfer fits entirely before this reservation.
			return start, i
		}
		// Overlap: try after this reservation.
		if res.end > start {
			start = res.end
		}
	}
	return start, len(r.reservations)
}

// prune forgets the reservations that ended before the horizon. Ends ascend
// with starts (see place), so those reservations are always a prefix of the
// list: pruning finds its length and slides the rest down.
func (r *Resource) prune() {
	var horizon Time
	if r.maxNow > pruneHorizon {
		horizon = r.maxNow - pruneHorizon
	}
	n := 0
	for n < len(r.reservations) && r.reservations[n].end < horizon {
		n++
	}
	if n > 0 {
		r.reservations = r.reservations[:copy(r.reservations, r.reservations[n:])]
	}
}

// Acquire reserves the resource for a transfer of size bytes starting no
// earlier than now. It returns the time at which the transfer starts (after
// any queueing) and the time at which it completes. State and statistics are
// updated; callers use the returned completion time to accumulate latency.
func (r *Resource) Acquire(now Time, bytes int) (start, done Time) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %d on %s", bytes, r.name))
	}
	r.transfers++
	r.bytesServed += uint64(bytes)
	if r.Infinite() || bytes == 0 {
		return now, now
	}
	if now > r.maxNow {
		r.maxNow = now
		if r.maxNow > r.lastPrune.Add(pruneInterval) {
			r.prune()
			r.lastPrune = r.maxNow
		}
	}
	service := r.serviceTime(bytes)
	start, idx := r.place(now, service)
	done = start.Add(service)
	r.waitCycles += uint64(start.Sub(now))
	r.busyCycles += uint64(service)
	r.reservations = append(r.reservations, interval{})
	copy(r.reservations[idx+1:], r.reservations[idx:])
	r.reservations[idx] = interval{start: start, end: done}
	return start, done
}

// Peek returns the completion time a transfer of size bytes would observe if
// issued at now, without reserving the resource.
func (r *Resource) Peek(now Time, bytes int) Time {
	if r.Infinite() || bytes == 0 {
		return now
	}
	service := r.serviceTime(bytes)
	start, _ := r.place(now, service)
	return start.Add(service)
}

// ResourceStats describes the accumulated occupancy of a resource.
type ResourceStats struct {
	Name        string
	Transfers   uint64
	BytesServed uint64
	BusyCycles  uint64
	WaitCycles  uint64
}

// Stats returns a snapshot of the resource's counters.
func (r *Resource) Stats() ResourceStats {
	return ResourceStats{
		Name:        r.name,
		Transfers:   r.transfers,
		BytesServed: r.bytesServed,
		BusyCycles:  r.busyCycles,
		WaitCycles:  r.waitCycles,
	}
}

// Utilisation returns busy cycles divided by the elapsed simulated time.
func (r *Resource) Utilisation(elapsed Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(r.busyCycles) / float64(elapsed)
}

// Reset clears occupancy and statistics (used between warm-up and measured
// phases of a run).
func (r *Resource) Reset() {
	r.reservations = r.reservations[:0]
	r.maxNow = 0
	r.lastPrune = 0
	r.transfers = 0
	r.bytesServed = 0
	r.busyCycles = 0
	r.waitCycles = 0
}

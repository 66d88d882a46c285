package serve

import "vrex/internal/named"

// DeviceState is the balancer's live view of one fleet member at assignment
// time.
type DeviceState struct {
	Index int
	// Free is the simulation time at which the device's current step (or
	// charged page movement) ends; work still queued behind it is not
	// included (see FleetOps.Backlog).
	Free float64
	// Busy is the accumulated busy seconds so far.
	Busy float64
	// ActiveSessions counts sessions currently placed on the device.
	ActiveSessions int
	// ResidentKV is the summed KV length of the device's active (admitted)
	// sessions — the KV they own, whether its pages are currently in device
	// memory or spilled to the backing store. For physical occupancy under
	// the memory-pressure plane, use FreePages/CapacityPages.
	ResidentKV int
	// ClassSessions counts active sessions per stream class.
	ClassSessions []int
	// FreePages / CapacityPages expose the device's KV pool occupancy when
	// the memory-pressure plane is enabled (both zero otherwise): free and
	// total pages of the device's kvpool.
	FreePages, CapacityPages int
	// DegradedSessions counts resident sessions currently running below full
	// retrieval budget (always zero with the degradation plane disabled).
	DegradedSessions int
	// Down marks a device the control plane took out of service (drain or
	// failure injection). Balancers never see down devices: placement runs
	// over a filtered view that preserves Index. Always false without a
	// controller.
	Down bool
}

// Balancer places arriving sessions on fleet devices. Implementations may
// carry state (e.g. a round-robin cursor); Run calls Reset once before the
// first assignment, so a single value can be reused across runs
// deterministically.
type Balancer interface {
	Name() string
	// Reset prepares the balancer for a run over the given fleet size.
	Reset(devices int)
	// Assign returns the device index for a session of the given class
	// arriving at time now. It must return a value in [0, len(devices)).
	Assign(now float64, class int, devices []DeviceState) int
}

// RoundRobin cycles through devices in index order, ignoring load.
type RoundRobin struct{ next int }

// NewRoundRobin returns the balancer.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Balancer.
func (*RoundRobin) Name() string { return "round-robin" }

// Reset implements Balancer.
func (b *RoundRobin) Reset(int) { b.next = 0 }

// Assign implements Balancer.
func (b *RoundRobin) Assign(_ float64, _ int, devices []DeviceState) int {
	d := b.next % len(devices)
	b.next++
	return d
}

// LeastLoaded picks the device with the fewest active sessions, breaking
// ties by smaller resident KV, earlier queue-drain time, then lower index —
// a deterministic total order.
type LeastLoaded struct{}

// NewLeastLoaded returns the balancer.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Balancer.
func (*LeastLoaded) Name() string { return "least-loaded" }

// Reset implements Balancer.
func (*LeastLoaded) Reset(int) {}

// Assign implements Balancer.
func (*LeastLoaded) Assign(_ float64, _ int, devices []DeviceState) int {
	return leastLoaded(devices)
}

func leastLoaded(devices []DeviceState) int {
	best := 0
	for i := 1; i < len(devices); i++ {
		a, b := &devices[i], &devices[best]
		switch {
		case a.ActiveSessions != b.ActiveSessions:
			if a.ActiveSessions < b.ActiveSessions {
				best = i
			}
		case a.ResidentKV != b.ResidentKV:
			if a.ResidentKV < b.ResidentKV {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	return best
}

// KVAffinity co-locates sessions of the same stream class so a device's
// resident KV working set stays class-homogeneous — sessions sharing a shape
// have matching cluster layouts and prefetch run lengths, which maximises
// the policy's segment-level reuse. Placement is affinity-first under a
// balance constraint: devices already holding more than a balanced share
// (plus one session of slack) are ineligible, and among the rest the session
// joins the device with the most active sessions of its class, falling back
// to least-loaded order on ties.
type KVAffinity struct{}

// NewKVAffinity returns the balancer.
func NewKVAffinity() *KVAffinity { return &KVAffinity{} }

// Name implements Balancer.
func (*KVAffinity) Name() string { return "kv-affinity" }

// Reset implements Balancer.
func (*KVAffinity) Reset(int) {}

// Assign implements Balancer.
func (*KVAffinity) Assign(_ float64, class int, devices []DeviceState) int {
	n := len(devices)
	total := 0
	for i := range devices {
		total += devices[i].ActiveSessions
	}
	// Balanced share of the population including the arriving session,
	// rounded up, plus one session of slack for affinity to act on.
	limit := (total+1+n-1)/n + 1
	best := -1
	for i := range devices {
		if devices[i].ActiveSessions >= limit {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		a, b := &devices[i], &devices[best]
		if a.ClassSessions[class] != b.ClassSessions[class] {
			if a.ClassSessions[class] > b.ClassSessions[class] {
				best = i
			}
			continue
		}
		switch {
		case a.ActiveSessions != b.ActiveSessions:
			if a.ActiveSessions < b.ActiveSessions {
				best = i
			}
		case a.ResidentKV != b.ResidentKV:
			if a.ResidentKV < b.ResidentKV {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	if best < 0 {
		// Unreachable given the slack, but stay safe against future edits.
		return leastLoaded(devices)
	}
	return best
}

// KVPressure places sessions by KV memory headroom: the device with the most
// free pool pages wins, so placement tracks actual memory pressure instead of
// session counts — a session mix with skewed StartKV lengths loads devices
// very unevenly per session. Ties (including the pool-disabled case, where
// every device reports zero free pages) fall back to least-loaded order.
type KVPressure struct{}

// NewKVPressure returns the balancer.
func NewKVPressure() *KVPressure { return &KVPressure{} }

// Name implements Balancer.
func (*KVPressure) Name() string { return "kv-pressure" }

// Reset implements Balancer.
func (*KVPressure) Reset(int) {}

// Assign implements Balancer.
func (*KVPressure) Assign(_ float64, _ int, devices []DeviceState) int {
	best := 0
	for i := 1; i < len(devices); i++ {
		a, b := &devices[i], &devices[best]
		switch {
		case a.FreePages != b.FreePages:
			if a.FreePages > b.FreePages {
				best = i
			}
		case a.ActiveSessions != b.ActiveSessions:
			if a.ActiveSessions < b.ActiveSessions {
				best = i
			}
		case a.ResidentKV != b.ResidentKV:
			if a.ResidentKV < b.ResidentKV {
				best = i
			}
		case a.Free < b.Free:
			best = i
		}
	}
	return best
}

// balancers is the balancer registry: CLIs resolve -balancer flags here.
var balancers = named.New[func() Balancer]("serve", "balancer")

func init() {
	RegisterBalancer("round-robin", func() Balancer { return NewRoundRobin() })
	RegisterBalancer("least-loaded", func() Balancer { return NewLeastLoaded() })
	RegisterBalancer("kv-affinity", func() Balancer { return NewKVAffinity() })
	RegisterBalancer("kv-pressure", func() Balancer { return NewKVPressure() })
}

// RegisterBalancer adds a balancer factory under name (lower-cased);
// duplicates panic — registry names are part of the CLI surface.
func RegisterBalancer(name string, f func() Balancer) { balancers.Register(name, f) }

// BalancerNames returns the registered balancer names, sorted.
func BalancerNames() []string { return balancers.Names() }

// NewBalancer builds a registered balancer by name.
func NewBalancer(name string) (Balancer, error) {
	f, ok := balancers.Lookup(name)
	if !ok {
		return nil, balancers.Unknown(name)
	}
	return f(), nil
}

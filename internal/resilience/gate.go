package resilience

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// DefaultTenant is the tenant the non-tenant Gate methods (Acquire,
// AcquireContext, TryAcquire, Release) charge their work to.
const DefaultTenant = "default"

// Gate is a weighted-semaphore admission controller with load shedding and
// per-tenant fairness: at most Capacity units of work are in flight, at
// most MaxWaiting acquirers queue behind them, and everything beyond that
// is shed immediately rather than queued into a latency cliff. Safe for
// concurrent use.
//
// Every acquisition is charged to a tenant (DefaultTenant unless the
// caller says otherwise). Tenants isolate load two ways:
//
//   - Queue quota: each tenant may occupy at most its weight-proportional
//     share of the MaxWaiting queue slots. A tenant past its share sheds
//     with ErrQuotaExceeded while the other tenants keep their room — a hot
//     tenant sheds itself, not everyone. A full queue overall sheds with
//     ErrShed as before.
//   - Deficit-round-robin dequeue: freed capacity is granted by cycling
//     over the tenants with queued waiters, each accumulating credit in
//     proportion to its weight, so grants converge on the weight ratio
//     under sustained contention. Within one tenant the queue stays strictly
//     FIFO — a heavy waiter at the head is never overtaken by lighter ones
//     behind it, so no acquirer starves.
//
// A gate that never sees a tenant name behaves exactly like the pre-tenant
// one: a single FIFO queue with shed-on-full.
//
// Shedding at admission is the serving layer's first line of defense:
// a request that cannot start before its deadline is cheaper to refuse in
// microseconds than to time out after consuming a worker.
type Gate struct {
	mu         sync.Mutex
	capacity   int64
	inFlight   int64
	maxWaiting int
	waiting    int // live queued waiters across all tenants
	shed       int64
	quotaShed  int64

	tenants map[string]*tenantState
	// weightTotal sums the weights of every known tenant — the denominator
	// of each tenant's fair share of the waiting queue.
	weightTotal int64
	// ring is the deficit-round-robin service order over tenants that
	// currently have queued waiters; cursor is the next tenant to serve.
	ring   []*tenantState
	cursor int
}

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	name    string
	weight  int64
	deficit int64
	inRing  bool

	inFlight  int64
	waiters   []*gateWaiter // FIFO; nil entries are canceled waiters
	waiting   int           // live entries in waiters
	admitted  int64
	shed      int64
	quotaShed int64
}

// gateWaiter is one queued acquisition; ready is closed when granted.
type gateWaiter struct {
	n      int64
	tenant *tenantState
	ready  chan struct{}
}

// NewGate returns a Gate admitting capacity units of concurrent work with
// a queue of at most maxWaiting blocked acquirers: 0 sheds the moment the
// gate is full, negative queues without bound. It panics if capacity is
// not positive. Every tenant starts at weight 1; SetQuota raises a
// tenant's share.
func NewGate(capacity int64, maxWaiting int) *Gate {
	if capacity <= 0 {
		panic("resilience: gate capacity must be positive")
	}
	g := &Gate{capacity: capacity, maxWaiting: maxWaiting, tenants: make(map[string]*tenantState)}
	g.tenantLocked(DefaultTenant)
	return g
}

// SetQuota sets a tenant's weight: its deficit-round-robin quantum and its
// proportional share of the waiting queue. Unknown tenants default to
// weight 1 on first use. It panics if weight is not positive. Call during
// setup; changing weights while waiters queue is safe but re-divides the
// queue shares immediately.
func (g *Gate) SetQuota(tenant string, weight int64) {
	if weight <= 0 {
		panic("resilience: gate tenant weight must be positive")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tenantLocked(tenant)
	g.weightTotal += weight - t.weight
	t.weight = weight
}

// tenantLocked returns the tenant's state, lazily creating it at weight 1.
// Callers hold g.mu.
func (g *Gate) tenantLocked(tenant string) *tenantState {
	t, ok := g.tenants[tenant]
	if !ok {
		t = &tenantState{name: tenant, weight: 1}
		g.tenants[tenant] = t
		g.weightTotal++
	}
	return t
}

// queueShareLocked is the tenant's fair share of the waiting queue: its
// weight-proportional slice of maxWaiting, at least 1 so every tenant can
// always queue something. Callers hold g.mu; only meaningful when
// maxWaiting is non-negative.
func (g *Gate) queueShareLocked(t *tenantState) int {
	share := int(int64(g.maxWaiting) * t.weight / g.weightTotal)
	if share < 1 {
		share = 1
	}
	return share
}

// AcquireContext admits n units for the default tenant.
func (g *Gate) AcquireContext(ctx context.Context, n int64) error {
	return g.AcquireTenantContext(ctx, DefaultTenant, n)
}

// AcquireTenantContext blocks until n units are admitted for tenant, the
// queue position is shed (ErrShed or ErrQuotaExceeded, wrapped), or ctx
// ends. Grants cycle across queued tenants by deficit round robin and stay
// FIFO within one tenant. Release the units with ReleaseTenant for the
// same tenant.
func (g *Gate) AcquireTenantContext(ctx context.Context, tenant string, n int64) error {
	if n <= 0 || n > g.capacity {
		return fmt.Errorf("resilience: gate: weight %d out of (0, %d]", n, g.capacity)
	}
	g.mu.Lock()
	t := g.tenantLocked(tenant)
	if g.inFlight+n <= g.capacity && g.waiting == 0 {
		g.inFlight += n
		t.inFlight += n
		t.admitted++
		g.mu.Unlock()
		return nil
	}
	if g.maxWaiting >= 0 {
		// The whole queue full sheds everyone; the tenant's share full
		// sheds just that tenant. The global check runs first so a gate
		// with a single tenant keeps the pre-tenant ErrShed behavior.
		if g.waiting >= g.maxWaiting {
			t.shed++
			g.shed++
			inFlight, waiting := g.inFlight, g.waiting
			g.mu.Unlock()
			return fmt.Errorf("resilience: gate: %d in flight, %d waiting: %w", inFlight, waiting, ErrShed)
		}
		if t.waiting >= g.queueShareLocked(t) {
			t.quotaShed++
			g.quotaShed++
			inFlight, waiting := g.inFlight, t.waiting
			g.mu.Unlock()
			return fmt.Errorf("resilience: gate: tenant %q: %d in flight, %d of its queue share waiting: %w",
				tenant, inFlight, waiting, ErrQuotaExceeded)
		}
	}
	w := &gateWaiter{n: n, tenant: t, ready: make(chan struct{})}
	t.waiters = append(t.waiters, w)
	t.waiting++
	g.waiting++
	if !t.inRing {
		t.inRing = true
		g.ring = append(g.ring, t)
	}
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: the units are already
			// charged to this waiter, so give them back before reporting
			// the cancellation.
			g.releaseLocked(t, w.n)
		default:
			g.removeLocked(t, w)
		}
		g.mu.Unlock()
		return fmt.Errorf("resilience: gate: %w", ctx.Err())
	}
}

// TryAcquire admits n units for the default tenant without blocking,
// reporting whether it succeeded. Queued waiters keep their priority:
// TryAcquire never jumps the queue.
func (g *Gate) TryAcquire(n int64) bool {
	if n <= 0 || n > g.capacity {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inFlight+n <= g.capacity && g.waiting == 0 {
		t := g.tenantLocked(DefaultTenant)
		g.inFlight += n
		t.inFlight += n
		t.admitted++
		return true
	}
	return false
}

// Release returns n units acquired for the default tenant.
func (g *Gate) Release(n int64) {
	g.ReleaseTenant(DefaultTenant, n)
}

// ReleaseTenant returns n units to the gate, credits them back to tenant,
// and wakes queued waiters that now fit. It panics on a release that
// exceeds the acquired total — globally or for the tenant.
func (g *Gate) ReleaseTenant(tenant string, n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked(g.tenantLocked(tenant), n)
}

// releaseLocked is ReleaseTenant with g.mu held.
func (g *Gate) releaseLocked(t *tenantState, n int64) {
	g.inFlight -= n
	t.inFlight -= n
	if g.inFlight < 0 || t.inFlight < 0 {
		panic("resilience: gate released more than acquired")
	}
	g.dispatchLocked()
}

// dispatchLocked grants freed capacity to queued waiters by deficit round
// robin: tenants with waiters are visited in ring order, each visit banks
// the tenant's weight as credit, and a tenant whose credit covers its head
// waiter is granted. The cursor persists across calls, so a tenant whose
// heavy head waiter does not fit the free capacity keeps its turn — the
// FIFO no-starvation property of the single-queue gate, per tenant.
// Callers hold g.mu.
func (g *Gate) dispatchLocked() {
	for len(g.ring) > 0 {
		if g.cursor >= len(g.ring) {
			g.cursor = 0
		}
		t := g.ring[g.cursor]
		// Drop canceled waiters at the head; an emptied tenant leaves the
		// ring and forfeits its banked credit (classic DRR: credit never
		// accumulates while idle).
		for len(t.waiters) > 0 && t.waiters[0] == nil {
			t.waiters = t.waiters[1:]
		}
		if len(t.waiters) == 0 {
			t.waiters = nil
			t.deficit = 0
			t.inRing = false
			g.ring = append(g.ring[:g.cursor], g.ring[g.cursor+1:]...)
			continue
		}
		head := t.waiters[0]
		if g.inFlight+head.n > g.capacity {
			// No room for the tenant whose turn it is: stop, keep the
			// cursor, and resume here on the next release.
			return
		}
		if t.deficit < head.n {
			t.deficit += t.weight
			g.cursor++
			continue
		}
		t.deficit -= head.n
		g.inFlight += head.n
		t.inFlight += head.n
		t.admitted++
		t.waiting--
		g.waiting--
		t.waiters = t.waiters[1:]
		close(head.ready)
	}
}

// removeLocked drops a canceled waiter from its tenant's queue without
// disturbing the positions of the others.
func (g *Gate) removeLocked(t *tenantState, target *gateWaiter) {
	for i, w := range t.waiters {
		if w == target {
			t.waiters[i] = nil
			t.waiting--
			g.waiting--
			return
		}
	}
}

// InFlight reports the units currently admitted.
func (g *Gate) InFlight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight
}

// Waiting reports the acquirers currently queued.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

// Shed reports how many acquisitions were refused because the whole
// waiting queue was full.
func (g *Gate) Shed() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shed
}

// QuotaShed reports how many acquisitions were refused because the
// acquiring tenant's queue share was full while the queue itself had room.
func (g *Gate) QuotaShed() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.quotaShed
}

// TenantStats is one tenant's admission counters, as reported by Tenants.
type TenantStats struct {
	// Tenant is the tenant name; Weight its configured share.
	Tenant string
	Weight int64
	// InFlight and Waiting are the tenant's current units and queued
	// acquirers; Admitted, Shed and QuotaShed are its lifetime counters.
	InFlight  int64
	Waiting   int
	Admitted  int64
	Shed      int64
	QuotaShed int64
}

// Tenants reports per-tenant admission counters, sorted by tenant name.
func (g *Gate) Tenants() []TenantStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]TenantStats, 0, len(g.tenants))
	for name, t := range g.tenants {
		out = append(out, TenantStats{
			Tenant:    name,
			Weight:    t.weight,
			InFlight:  t.inFlight,
			Waiting:   t.waiting,
			Admitted:  t.admitted,
			Shed:      t.shed,
			QuotaShed: t.quotaShed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGateTenantQuotaShedsHotTenantOnly fills one hot tenant's queue share
// and checks it sheds with ErrQuotaExceeded while a cold tenant still
// queues — the hot tenant sheds itself, not everyone.
func TestGateTenantQuotaShedsHotTenantOnly(t *testing.T) {
	// Capacity 1 held, 8 queue slots split across hot (weight 1), cold
	// (weight 1) and the default tenant (weight 1): each share is 8/3 = 2.
	g := NewGate(1, 8)
	g.SetQuota("hot", 1)
	g.SetQuota("cold", 1)
	if err := g.AcquireTenantContext(context.Background(), "hot", 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	var wg sync.WaitGroup
	queued := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.AcquireTenantContext(context.Background(), tenant, 1); err != nil {
				t.Errorf("queued %s acquire: %v", tenant, err)
				return
			}
			g.ReleaseTenant(tenant, 1)
		}()
	}
	queued("hot")
	queued("hot")
	for g.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}

	// Hot is at its share (2 of 8): the next hot acquire quota-sheds.
	err := g.AcquireTenantContext(context.Background(), "hot", 1)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("hot tenant past its share = %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, ErrShed) {
		t.Fatalf("quota shed must not satisfy ErrShed: %v", err)
	}
	if got := g.QuotaShed(); got != 1 {
		t.Fatalf("QuotaShed = %d, want 1", got)
	}
	if got := g.Shed(); got != 0 {
		t.Fatalf("Shed = %d, want 0 (the queue itself has room)", got)
	}

	// The cold tenant still has its own share.
	queued("cold")
	for g.Waiting() < 3 {
		time.Sleep(time.Millisecond)
	}

	g.ReleaseTenant("hot", 1)
	wg.Wait()

	stats := g.Tenants()
	byName := map[string]TenantStats{}
	for _, ts := range stats {
		byName[ts.Tenant] = ts
	}
	if byName["hot"].QuotaShed != 1 || byName["cold"].QuotaShed != 0 {
		t.Fatalf("per-tenant quota sheds = %+v", stats)
	}
	if byName["hot"].Admitted != 3 || byName["cold"].Admitted != 1 {
		t.Fatalf("per-tenant admitted = %+v", stats)
	}
}

// TestGateTenantGlobalQueueFullSheds fills the entire waiting queue across
// tenants and checks the overflow is a plain ErrShed.
func TestGateTenantGlobalQueueFullSheds(t *testing.T) {
	g := NewGate(1, 0)
	if err := g.AcquireTenantContext(context.Background(), "a", 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := g.AcquireTenantContext(context.Background(), "b", 1); !errors.Is(err, ErrShed) {
		t.Fatalf("acquire on zero-slot queue = %v, want ErrShed", err)
	}
	g.ReleaseTenant("a", 1)
}

// TestGateDeficitRoundRobinWeights queues many waiters for two tenants
// with a 3:1 weight ratio behind a capacity-1 gate and checks the grant
// sequence converges on that ratio while staying FIFO within each tenant.
func TestGateDeficitRoundRobinWeights(t *testing.T) {
	g := NewGate(1, -1)
	g.SetQuota("gold", 3)
	g.SetQuota("bronze", 1)
	if err := g.AcquireContext(context.Background(), 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	const perTenant = 8
	var mu sync.Mutex
	var grants []string
	order := map[string][]int{}
	var wg sync.WaitGroup
	enqueue := func(tenant string, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.AcquireTenantContext(context.Background(), tenant, 1); err != nil {
				t.Errorf("%s %d: %v", tenant, i, err)
				return
			}
			mu.Lock()
			grants = append(grants, tenant)
			order[tenant] = append(order[tenant], i)
			mu.Unlock()
			g.ReleaseTenant(tenant, 1)
		}()
	}
	// Stagger arrivals so each tenant's queue order is deterministic.
	for i := 0; i < perTenant; i++ {
		enqueue("gold", i)
		for g.Waiting() < 2*i+1 {
			time.Sleep(time.Millisecond)
		}
		enqueue("bronze", i)
		for g.Waiting() < 2*i+2 {
			time.Sleep(time.Millisecond)
		}
	}

	g.Release(1) // the serial releases in the goroutines drain the rest
	wg.Wait()

	// FIFO within each tenant.
	for tenant, got := range order {
		for i, idx := range got {
			if idx != i {
				t.Fatalf("tenant %s grant order = %v, want FIFO", tenant, got)
			}
		}
	}
	// Weighted fairness: in the first 8 grants (both queues still backed
	// up), gold must get about 3× bronze's share — exactly 6 with quantum
	// accounting, but any 5-7 split proves the deficit is weight-driven.
	goldEarly := 0
	for _, tenant := range grants[:8] {
		if tenant == "gold" {
			goldEarly++
		}
	}
	if goldEarly < 5 || goldEarly > 7 {
		t.Fatalf("gold got %d of the first 8 grants, want 5-7 (weight 3:1); grants = %v", goldEarly, grants)
	}
	if len(grants) != 2*perTenant {
		t.Fatalf("grants = %d, want %d", len(grants), 2*perTenant)
	}
}

// TestGateWaiterOrderSurvivesConcurrentCancellation is the fairness base
// the per-tenant dequeue builds on: with waiters A,B,C,D queued FIFO and
// B,D canceled concurrently with grants, the survivors are granted in
// arrival order (A then C) and the queue bookkeeping stays exact.
func TestGateWaiterOrderSurvivesConcurrentCancellation(t *testing.T) {
	for round := 0; round < 50; round++ {
		g := NewGate(1, -1)
		if err := g.AcquireContext(context.Background(), 1); err != nil {
			t.Fatalf("Acquire: %v", err)
		}

		type waiter struct {
			cancel context.CancelFunc
			err    chan error
		}
		var mu sync.Mutex
		var grantOrder []int
		ws := make([]waiter, 4)
		for i := range ws {
			ctx, cancel := context.WithCancel(context.Background())
			ws[i] = waiter{cancel: cancel, err: make(chan error, 1)}
			i := i
			go func() {
				err := g.AcquireContext(ctx, 1)
				if err == nil {
					mu.Lock()
					grantOrder = append(grantOrder, i)
					mu.Unlock()
					g.Release(1)
				}
				ws[i].err <- err
			}()
			// Serialize arrival so the FIFO positions are 0,1,2,3.
			for g.Waiting() < i+1 {
				time.Sleep(time.Millisecond)
			}
		}

		// Cancel 1 and 3 concurrently with the release that starts grants.
		var cwg sync.WaitGroup
		for _, i := range []int{1, 3} {
			i := i
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				ws[i].cancel()
			}()
		}
		g.Release(1)
		cwg.Wait()

		for i := range ws {
			err := <-ws[i].err
			if i == 0 && err != nil {
				t.Fatalf("round %d: waiter 0: %v, want grant", round, err)
			}
			// Waiters 1 and 3 raced a cancel against the grant wave: either
			// a clean grant or a clean cancellation is correct, but nothing
			// else, and a grant must not be lost (checked via bookkeeping
			// below). Waiter 2 must eventually be granted: its cancel never
			// fired, and canceled waiters ahead of it cannot block it.
			if (i == 1 || i == 3) && err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: waiter %d: %v, want grant or Canceled", round, i, err)
			}
			if i == 2 && err != nil {
				t.Fatalf("round %d: waiter 2: %v, want grant", round, i)
			}
		}

		// Survivors were granted in arrival order.
		mu.Lock()
		pos := map[int]int{}
		for p, i := range grantOrder {
			pos[i] = p
		}
		if p0, ok0 := pos[0], true; ok0 {
			if p2, ok2 := pos[2]; ok2 && p0 > p2 {
				t.Fatalf("round %d: waiter 0 granted after waiter 2: order %v", round, grantOrder)
			}
		}
		if p1, ok1 := pos[1]; ok1 {
			if p3, ok3 := pos[3]; ok3 && p1 > p3 {
				t.Fatalf("round %d: waiter 1 granted after waiter 3: order %v", round, grantOrder)
			}
		}
		mu.Unlock()

		// The gate is fully drained: no lost or double grants.
		if got := g.InFlight(); got != 0 {
			t.Fatalf("round %d: InFlight = %d, want 0", round, got)
		}
		if got := g.Waiting(); got != 0 {
			t.Fatalf("round %d: Waiting = %d, want 0", round, got)
		}
	}
}

// TestGateTenantReleaseMismatchPanics over-releases one tenant and checks
// the bookkeeping panic fires even when the global total would still be
// consistent.
func TestGateTenantReleaseMismatchPanics(t *testing.T) {
	g := NewGate(2, 0)
	if err := g.AcquireTenantContext(context.Background(), "a", 1); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release for the wrong tenant did not panic")
		}
	}()
	g.ReleaseTenant("b", 1)
}

// TestGateSetQuotaValidates rejects non-positive weights.
func TestGateSetQuotaValidates(t *testing.T) {
	g := NewGate(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetQuota(0) did not panic")
		}
	}()
	g.SetQuota("a", 0)
}

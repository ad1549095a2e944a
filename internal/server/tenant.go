package server

import (
	"context"
	"sync"
	"time"
)

// Per-tenant admission: a token bucket bounds each tenant's request rate,
// and the admission semaphore is a fair queue — waiting requests are
// grouped by tenant and slots are granted round-robin across tenants — so
// one hot student hammering /grade cannot starve everyone else behind a
// single FIFO.

// anonTenant buckets requests that carry no tenant id.
const anonTenant = "anon"

// TenantOf picks the request's tenant id: the explicit request field wins,
// then the X-Tenant header, then the shared anonymous bucket.
func TenantOf(field, header string) string {
	if field != "" {
		return field
	}
	if header != "" {
		return header
	}
	return anonTenant
}

// bucket is one tenant's token bucket.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// tenantLimiter hands out request tokens per tenant: rate tokens/second,
// burst capacity. Buckets live in an LRU so a scan of one-off tenant ids
// cannot grow memory without bound (an evicted bucket refills on return,
// which only ever errs in the tenant's favor).
type tenantLimiter struct {
	rate    float64
	burst   float64
	buckets *lru[string, *bucket]
}

// tenantBucketCap bounds how many tenants' buckets stay resident.
const tenantBucketCap = 4096

func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	if rate <= 0 {
		return nil // rate limiting disabled
	}
	if burst <= 0 {
		burst = 1
	}
	return &tenantLimiter{rate: rate, burst: float64(burst), buckets: newLRU[string, *bucket](tenantBucketCap)}
}

// Allow takes one token from the tenant's bucket, reporting whether the
// request may proceed and, if not, how long until a token is available.
func (l *tenantLimiter) Allow(tenant string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	b, ok := l.buckets.Get(tenant)
	if !ok {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets.Add(tenant, b)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// waiter is one queued admission request.
type waiter struct {
	ch       chan struct{}
	granted  bool
	canceled bool
}

// fairQueue is the admission semaphore with per-tenant fair queueing:
// slots slots, and when all are busy, arrivals queue per tenant and a
// freed slot is granted to the head of the next tenant's queue in
// round-robin order.
type fairQueue struct {
	mu     sync.Mutex
	free   int
	queues map[string][]*waiter
	ring   []string // tenants with live waiters, round-robin order
	next   int
}

func newFairQueue(slots int) *fairQueue {
	return &fairQueue{free: slots, queues: map[string][]*waiter{}}
}

// Acquire blocks until a slot is granted or ctx expires. Fairness: a new
// arrival queues behind existing waiters even if a slot just freed — the
// grant path decides who runs next.
func (q *fairQueue) Acquire(ctx context.Context, tenant string) bool {
	q.mu.Lock()
	if q.free > 0 && len(q.queues) == 0 {
		q.free--
		q.mu.Unlock()
		return true
	}
	w := &waiter{ch: make(chan struct{})}
	q.queues[tenant] = append(q.queues[tenant], w)
	if len(q.queues[tenant]) == 1 {
		q.ring = append(q.ring, tenant)
	}
	q.mu.Unlock()
	select {
	case <-w.ch:
		return true
	case <-ctx.Done():
		q.mu.Lock()
		defer q.mu.Unlock()
		if w.granted {
			// The grant raced the deadline; we hold a slot after all.
			// Taking it is correct — the caller's budget check will bounce
			// the request immediately and release it.
			return true
		}
		w.canceled = true // reaped lazily by the grant path
		return false
	}
}

// Release returns a slot, handing it directly to the next waiter (round-
// robin across tenants) or back to the free pool.
func (q *fairQueue) Release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ring) > 0 {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		tenant := q.ring[q.next]
		queue := q.queues[tenant]
		for len(queue) > 0 && queue[0].canceled {
			queue = queue[1:]
		}
		if len(queue) == 0 {
			delete(q.queues, tenant)
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
			continue
		}
		w := queue[0]
		queue = queue[1:]
		if len(queue) == 0 {
			delete(q.queues, tenant)
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		} else {
			q.queues[tenant] = queue
			q.next++ // this tenant got the slot; the next grant looks at the next tenant
		}
		w.granted = true
		close(w.ch)
		return
	}
	q.free++
}

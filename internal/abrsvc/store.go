package abrsvc

import (
	"fmt"
	"sync"
	"time"

	"mpcdash/internal/obs"
)

// store is the in-memory session table: one map under one mutex, which
// also guards every session's idle timestamp. A decide request holds the
// lock for one map lookup and one timestamp write, and admission caps
// concurrent decides at MaxInFlight, so the lock is never contended past
// that. The clock is injected (the service wires the wall clock, tests a
// fake), which keeps this file free of wall-clock reads and the TTL logic
// testable without sleeping.
type store struct {
	mu  sync.Mutex
	m   map[string]*session
	ttl time.Duration
	max int
	now func() time.Time

	gSessions *obs.Gauge
	cCreated  *obs.Counter
	cEvicted  *obs.Counter
}

// newStore builds a store with the given idle TTL, capacity and clock.
func newStore(ttl time.Duration, max int, now func() time.Time, reg *obs.Registry) *store {
	return &store{
		m:         make(map[string]*session),
		ttl:       ttl,
		max:       max,
		now:       now,
		gSessions: reg.Gauge(MetricSessions, "Sessions currently resident in the store."),
		cCreated:  reg.Counter(MetricSessionsCreated, "Sessions registered since start."),
		cEvicted:  reg.Counter(MetricSessionsEvicted, "Idle sessions removed by TTL eviction."),
	}
}

// put registers a session, enforcing capacity and ID uniqueness.
func (st *store) put(ss *session) error {
	st.mu.Lock()
	if len(st.m) >= st.max {
		st.mu.Unlock()
		return fmt.Errorf("abrsvc: session store at capacity (%d resident)", st.max)
	}
	if _, dup := st.m[ss.id]; dup {
		st.mu.Unlock()
		return fmt.Errorf("abrsvc: session %q already registered", ss.id)
	}
	ss.lastUsed = st.now().UnixNano()
	st.m[ss.id] = ss
	st.mu.Unlock()

	st.cCreated.Inc()
	st.gSessions.Add(1)
	return nil
}

// get returns the session and refreshes its idle timestamp.
func (st *store) get(id string) (*session, bool) {
	st.mu.Lock()
	ss, ok := st.m[id]
	if ok {
		ss.lastUsed = st.now().UnixNano()
	}
	st.mu.Unlock()
	return ss, ok
}

// delete removes a session, reporting whether it was resident.
func (st *store) delete(id string) (*session, bool) {
	st.mu.Lock()
	ss, ok := st.m[id]
	if ok {
		delete(st.m, id)
	}
	st.mu.Unlock()
	if ok {
		st.gSessions.Add(-1)
	}
	return ss, ok
}

// len reports the resident session count.
func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// evictIdle removes every session idle longer than the TTL, returning the
// evicted sessions so the caller can detach them from their link groups.
// A decide request racing the sweep either refreshes the timestamp first
// (and survives) or finds the session gone (404, the same outcome as
// arriving after expiry).
func (st *store) evictIdle() []*session {
	cutoff := st.now().Add(-st.ttl).UnixNano()
	var evicted []*session
	st.mu.Lock()
	for id, ss := range st.m {
		if ss.lastUsed < cutoff {
			delete(st.m, id)
			evicted = append(evicted, ss)
		}
	}
	st.mu.Unlock()
	if n := len(evicted); n > 0 {
		st.cEvicted.Add(uint64(n))
		st.gSessions.Add(-float64(n))
	}
	return evicted
}

package client

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/mayflower-dfs/mayflower/internal/fabric"
	"github.com/mayflower-dfs/mayflower/internal/nameserver"
	"github.com/mayflower-dfs/mayflower/internal/obs"
)

// maxValidateBatch caps how many expired leases one Validate RPC renews.
// Anything beyond it simply waits for the next expiry-triggered batch.
const maxValidateBatch = 512

// cacheMetrics counts the metadata cache: lease hits (negative hits
// included), misses that cost a full Lookup, coalesced misses that rode
// another goroutine's Lookup, lease renewals via Validate, renewals that
// revealed the cached record had gone stale (the client had been serving
// it), LRU evictions, and the current entry count.
type cacheMetrics struct {
	hits        obs.Counter
	misses      obs.Counter
	coalesced   obs.Counter
	renewed     obs.Counter
	staleServed obs.Counter
	evicted     obs.Counter
	entries     obs.Gauge
}

func (m *cacheMetrics) register(r *obs.Registry) {
	r.RegisterCounter("client.cache_hits", &m.hits)
	r.RegisterCounter("client.cache_misses", &m.misses)
	r.RegisterCounter("client.cache_coalesced", &m.coalesced)
	r.RegisterCounter("client.cache_renewed", &m.renewed)
	r.RegisterCounter("client.cache_stale_served", &m.staleServed)
	r.RegisterCounter("client.cache_evicted", &m.evicted)
	r.RegisterGauge("client.cache_entries", &m.entries)
}

// metaEntry is one leased cache slot. A negative entry records that the
// name did not exist — repeated opens of a deleted file cost one Lookup
// per lease, not one per call.
type metaEntry struct {
	name     string
	info     nameserver.FileInfo
	negative bool
	// expires is the lease deadline in fabric-clock seconds. An expired
	// entry is not discarded: it is revalidated with a batched Validate
	// carrying (name, version), which is far cheaper than a Lookup when
	// the record has not changed.
	expires float64
	// epoch is the newest namespace epoch at which this record is known
	// fresh: the epoch attached to the Validate reply that produced or
	// renewed it, or the client's epoch at store time for records fetched
	// by Lookup (the fetch happened no earlier than that observation). A
	// Validate batch claims the minimum epoch over its entries, so the
	// server's epoch fast path can never renew an entry cached under an
	// older epoch than the one claimed.
	epoch int64
}

// flight coalesces concurrent misses on one name into a single
// nameserver round trip (lease-expiry revalidation included).
type flight struct {
	done chan struct{}
	info nameserver.FileInfo
	err  error
}

// metaCache is the client's metadata cache: a bounded LRU of leased
// FileInfo records keyed by name.
//
// Correctness model: within a lease a record may be served without any
// nameserver traffic, so a read can act on metadata at most one lease
// stale — the same bound the TTL cache gave, but now measured on the
// fabric clock (so compressed-clock emulation keeps the configured TTL)
// and with expiry costing a batched Validate instead of a full Lookup.
// The nameserver's namespace epoch makes the common renewal O(1): when
// the claimed epoch still matches the server's, the server renews the
// whole batch without per-entry checks. Soundness hinges on what epoch a
// batch may claim: each entry carries the epoch at which it is known
// fresh, and a batch claims the minimum over its entries — so an entry
// cached under an old epoch can never ride the fast path on the strength
// of a newer epoch the client adopted afterwards from an unrelated
// renewal. A lower claim merely forfeits the fast path; the server then
// checks versions per entry, which stays correct.
type metaCache struct {
	cap   int
	ttl   float64 // lease length, fabric seconds
	clock fabric.Clock

	// lookup performs a full metadata fetch; validate renews a batch of
	// (name, version) leases. Both are injected so the cache is testable
	// (and benchmarkable) without a nameserver.
	lookup   func(ctx context.Context, name string) (nameserver.FileInfo, error)
	validate func(ctx context.Context, epoch int64, entries []nameserver.ValidateEntry) ([]nameserver.ValidateResult, int64, error)

	mu      sync.Mutex
	entries map[string]*list.Element // name → *metaEntry element
	lru     *list.List               // front = most recently used
	flights map[string]*flight
	epoch   int64 // newest namespace epoch observed in any Validate reply

	met *cacheMetrics
}

func newMetaCache(capEntries int, ttl float64, clock fabric.Clock, met *cacheMetrics) *metaCache {
	if clock == nil {
		clock = fabric.NewWallClock()
	}
	return &metaCache{
		cap:     capEntries,
		ttl:     ttl,
		clock:   clock,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
		met:     met,
	}
}

// Get returns leased metadata for name, consulting the nameserver only
// on a miss (full Lookup, concurrent misses coalesced) or an expired
// lease (batched Validate, falling back to Lookup if the RPC fails).
func (mc *metaCache) Get(ctx context.Context, name string) (nameserver.FileInfo, error) {
	mc.mu.Lock()
	now := mc.clock.Now()
	var expired *metaEntry
	if el, ok := mc.entries[name]; ok {
		e := el.Value.(*metaEntry)
		if now < e.expires {
			mc.lru.MoveToFront(el)
			info, neg := e.info, e.negative
			mc.mu.Unlock()
			mc.met.hits.Inc()
			if neg {
				return nameserver.FileInfo{}, fmt.Errorf("%w: %s", nameserver.ErrNotFound, name)
			}
			return info, nil
		}
		expired = e
	}
	// Miss or expired lease: coalesce with any in-flight resolution.
	if fl, ok := mc.flights[name]; ok {
		mc.mu.Unlock()
		mc.met.coalesced.Inc()
		select {
		case <-fl.done:
			return fl.info, fl.err
		case <-ctx.Done():
			return nameserver.FileInfo{}, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	mc.flights[name] = fl
	var batch []nameserver.ValidateEntry
	var epoch int64
	if expired != nil {
		batch, epoch = mc.expiredBatchLocked(name, now)
	}
	mc.mu.Unlock()

	if expired != nil {
		fl.info, fl.err = mc.revalidate(ctx, name, epoch, batch)
	} else {
		mc.met.misses.Inc()
		fl.info, fl.err = mc.lookupAndStore(ctx, name)
	}

	mc.mu.Lock()
	delete(mc.flights, name)
	mc.mu.Unlock()
	close(fl.done)
	return fl.info, fl.err
}

// expiredBatchLocked collects (name, version) pairs for every expired
// entry — the requested name first — so one Validate renews them all,
// along with the epoch the batch may soundly claim: the minimum over its
// entries' fresh-at epochs. Caller holds mc.mu.
func (mc *metaCache) expiredBatchLocked(name string, now float64) ([]nameserver.ValidateEntry, int64) {
	batch := make([]nameserver.ValidateEntry, 0, 8)
	var epoch int64
	add := func(e *metaEntry) {
		v := e.info.Version
		if e.negative {
			v = 0
		}
		if len(batch) == 0 || e.epoch < epoch {
			epoch = e.epoch
		}
		batch = append(batch, nameserver.ValidateEntry{Name: e.name, Version: v})
	}
	add(mc.entries[name].Value.(*metaEntry))
	for el := mc.lru.Back(); el != nil && len(batch) < maxValidateBatch; el = el.Prev() {
		e := el.Value.(*metaEntry)
		if e.name != name && now >= e.expires {
			add(e)
		}
	}
	return batch, epoch
}

// revalidate renews a batch of expired leases with one Validate RPC and
// resolves the requested name from the verdicts. A transport failure
// degrades to a plain Lookup for the requested name — the other expired
// entries just stay expired and retry on their next access.
func (mc *metaCache) revalidate(ctx context.Context, name string, epoch int64, batch []nameserver.ValidateEntry) (nameserver.FileInfo, error) {
	results, newEpoch, err := mc.validate(ctx, epoch, batch)
	if err != nil {
		return mc.lookupAndStore(ctx, name)
	}
	mc.mu.Lock()
	now := mc.clock.Now()
	var out nameserver.FileInfo
	outErr := error(nil)
	found := false
	byName := make(map[string]nameserver.ValidateEntry, len(batch))
	for _, e := range batch {
		byName[e.Name] = e
	}
	for _, r := range results {
		sent := byName[r.Name]
		switch r.Status {
		case nameserver.ValidateOK:
			// Renew only if the slot still holds exactly what we asked
			// about; a concurrent store or invalidation wins.
			if el, ok := mc.entries[r.Name]; ok {
				e := el.Value.(*metaEntry)
				curVer := e.info.Version
				if e.negative {
					curVer = 0
				}
				if curVer == sent.Version {
					e.expires = now + mc.ttl
					if newEpoch > e.epoch {
						e.epoch = newEpoch
					}
					mc.met.renewed.Inc()
					if r.Name == name {
						found = true
						out, outErr = e.info, nil
						if e.negative {
							outErr = fmt.Errorf("%w: %s", nameserver.ErrNotFound, r.Name)
						}
					}
				}
			}
		case nameserver.ValidateStale:
			if r.Info == nil {
				continue
			}
			// The attached record is server-fresh; storing it is
			// equivalent to a Lookup completing now.
			mc.storeLocked(r.Name, *r.Info, now, newEpoch)
			mc.met.staleServed.Inc()
			if r.Name == name {
				found = true
				out, outErr = *r.Info, nil
			}
		case nameserver.ValidateGone:
			mc.storeNegativeLocked(r.Name, now, newEpoch)
			if r.Name == name {
				found = true
				out, outErr = nameserver.FileInfo{}, fmt.Errorf("%w: %s", nameserver.ErrNotFound, r.Name)
			}
		}
	}
	if newEpoch > mc.epoch {
		mc.epoch = newEpoch
	}
	mc.mu.Unlock()
	if found {
		return out, outErr
	}
	// The server did not answer for the requested name (defensive; a
	// well-formed reply always covers the batch). Fall back to Lookup.
	return mc.lookupAndStore(ctx, name)
}

// lookupAndStore performs the full metadata fetch and caches the result,
// negatively for a NotFound.
func (mc *metaCache) lookupAndStore(ctx context.Context, name string) (nameserver.FileInfo, error) {
	info, err := mc.lookup(ctx, name)
	if err != nil {
		if errors.Is(err, nameserver.ErrNotFound) {
			mc.mu.Lock()
			mc.storeNegativeLocked(name, mc.clock.Now(), mc.epoch)
			mc.mu.Unlock()
		}
		return nameserver.FileInfo{}, err
	}
	mc.Store(name, info)
	return info, nil
}

// Store caches a server-fresh record under a new lease. The record is
// fresh no earlier than the client's current epoch observation (the RPC
// that produced it completed after that epoch was reported), so that is
// the epoch it may soundly claim.
func (mc *metaCache) Store(name string, info nameserver.FileInfo) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.storeLocked(name, info, mc.clock.Now(), mc.epoch)
}

func (mc *metaCache) storeLocked(name string, info nameserver.FileInfo, now float64, epoch int64) {
	e := &metaEntry{name: name, info: info, expires: now + mc.ttl, epoch: epoch}
	mc.upsertLocked(name, e)
}

func (mc *metaCache) storeNegativeLocked(name string, now float64, epoch int64) {
	e := &metaEntry{name: name, negative: true, expires: now + mc.ttl, epoch: epoch}
	mc.upsertLocked(name, e)
}

func (mc *metaCache) upsertLocked(name string, e *metaEntry) {
	if el, ok := mc.entries[name]; ok {
		el.Value = e
		mc.lru.MoveToFront(el)
	} else {
		mc.entries[name] = mc.lru.PushFront(e)
	}
	for mc.lru.Len() > mc.cap {
		back := mc.lru.Back()
		delete(mc.entries, back.Value.(*metaEntry).name)
		mc.lru.Remove(back)
		mc.met.evicted.Inc()
	}
	mc.met.entries.Set(int64(len(mc.entries)))
}

// Invalidate drops a name from the cache (e.g. after a failed append,
// when the replica set may be changing under repair).
func (mc *metaCache) Invalidate(name string) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if el, ok := mc.entries[name]; ok {
		delete(mc.entries, name)
		mc.lru.Remove(el)
		mc.met.entries.Set(int64(len(mc.entries)))
	}
}

// ObserveSize folds a size learned from a dataserver into the cached
// record — but only into a still-present entry of the same version.
// Without the version guard a slow read's size report could resurrect
// metadata that a concurrent failed Append had just invalidated, or fold
// a pre-delete size into a re-created file's record.
func (mc *metaCache) ObserveSize(name string, version, size int64) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	el, ok := mc.entries[name]
	if !ok {
		return
	}
	e := el.Value.(*metaEntry)
	if e.negative || e.info.Version != version {
		return
	}
	if size > e.info.SizeBytes {
		e.info.SizeBytes = size
	}
}

// Len reports the current entry count.
func (mc *metaCache) Len() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.entries)
}

// has reports whether a (positive) entry for name is cached, expired or
// not. Test helper.
func (mc *metaCache) has(name string) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	el, ok := mc.entries[name]
	return ok && !el.Value.(*metaEntry).negative
}

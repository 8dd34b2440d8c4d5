// Package nameserver implements Mayflower's metadata service (§3.3.1 of
// the paper): it owns the file→chunks and file→dataservers mappings,
// makes replica placement decisions under fault-domain constraints when a
// file is created, and persists its state in an embedded key-value store
// (the paper uses LevelDB with fsync off) so graceful restarts are fast.
// After an unexpected restart the nameserver does not trust the possibly
// stale store: it rebuilds the mappings by scanning the file metadata
// stored at the dataservers.
package nameserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/mayflower-dfs/mayflower/internal/kvstore"
	"github.com/mayflower-dfs/mayflower/internal/uuid"
)

// Default filesystem parameters (§5: 256 MB blocks, 3 replicas).
const (
	DefaultChunkSize   = 256 << 20
	DefaultReplication = 3
)

// Well-known errors, matched by clients with errors.Is.
var (
	ErrNotFound      = errors.New("nameserver: file not found")
	ErrExists        = errors.New("nameserver: file already exists")
	ErrNoDataservers = errors.New("nameserver: not enough dataservers registered")
)

// ReplicaLoc identifies one dataserver holding a replica.
type ReplicaLoc struct {
	// ServerID is the dataserver's stable identity.
	ServerID string `json:"serverId"`
	// ControlAddr is the dataserver's RPC endpoint.
	ControlAddr string `json:"controlAddr"`
	// DataAddr is the dataserver's bulk-read endpoint.
	DataAddr string `json:"dataAddr"`
	// Host is the topology host name the dataserver runs on, used by the
	// Flowserver for replica-path selection.
	Host string `json:"host"`
}

// FileInfo is the metadata record for one file. Replicas[0] is the
// primary, which orders all appends.
type FileInfo struct {
	ID        uuid.UUID    `json:"id"`
	Name      string       `json:"name"`
	SizeBytes int64        `json:"sizeBytes"`
	ChunkSize int64        `json:"chunkSize"`
	Replicas  []ReplicaLoc `json:"replicas"`
	// Version stamps the record's last mutation (install, size report,
	// replica replacement). Versions are drawn from one global sequence,
	// so they are monotonic per file AND unique across a delete/re-create
	// of the same name — a client holding a pre-delete version can never
	// mistake the re-created file for its cached record. Clients cache
	// FileInfo under a lease and revalidate with a cheap batched Validate
	// carrying (name, version) pairs instead of a full Lookup; an
	// unchanged version renews the lease without re-sending the record.
	Version int64 `json:"version,omitempty"`
}

// NumChunks returns how many chunk files hold the file's bytes.
func (f FileInfo) NumChunks() int {
	if f.SizeBytes == 0 {
		return 0
	}
	return int((f.SizeBytes + f.ChunkSize - 1) / f.ChunkSize)
}

// Primary returns the primary replica location.
func (f FileInfo) Primary() ReplicaLoc { return f.Replicas[0] }

// ServerInfo is a registered dataserver.
type ServerInfo struct {
	ID          string `json:"id"`
	ControlAddr string `json:"controlAddr"`
	DataAddr    string `json:"dataAddr"`
	Host        string `json:"host"`
	Pod         int    `json:"pod"`
	Rack        int    `json:"rack"`
}

// CreateOptions tune file creation.
type CreateOptions struct {
	// ChunkSize in bytes; DefaultChunkSize if zero.
	ChunkSize int64 `json:"chunkSize,omitempty"`
	// Replication factor; DefaultReplication if zero.
	Replication int `json:"replication,omitempty"`
	// PreferredReplicas, when non-empty, pins the replica set to these
	// registered server ids (in order; the first is the primary),
	// bypassing the placement policy. Experiment harnesses use it to
	// give every scheme identical file placement, as the paper does for
	// its HDFS comparison ("we use the same primary replica location for
	// both Mayflower and HDFS", §6.7).
	PreferredReplicas []string `json:"preferredReplicas,omitempty"`
}

// Service is the nameserver's logic, independent of any transport. All
// methods are safe for concurrent use.
type Service struct {
	store *kvstore.Store
	rng   *rand.Rand

	mu        sync.Mutex
	files     map[string]FileInfo   // name → info
	servers   map[string]ServerInfo // id → info
	lastBeat  map[string]time.Time  // id → last heartbeat (in-memory only)
	deadAfter time.Duration         // placement skips servers silent this long (0 = no filter)

	// epoch is the version of the last namespace-shape mutation
	// (InstallFile, Delete, ReplaceReplica, Rebuild) — the events that can
	// invalidate a cached replica set. A client whose last observed epoch
	// still matches can have every lease renewed without per-entry version
	// checks (sizes may have moved, but sizes only grow and are corrected
	// by every dataserver read).
	epoch int64
	// verSeq issues FileInfo versions: a global sequence bumped on every
	// record mutation (shape mutations plus size reports), so versions are
	// monotonic per file and never reused across a delete/re-create.
	verSeq int64
}

const (
	filePrefix   = "file/"
	serverPrefix = "server/"
	// checkpointKey holds the version checkpoint (see checkpointLocked).
	checkpointKey = "meta/epoch"
)

// NewService opens a nameserver over the given metadata store. Existing
// state is loaded from the store (the fast path after a graceful
// shutdown).
func NewService(store *kvstore.Store, rng *rand.Rand) (*Service, error) {
	s := &Service{
		store:    store,
		rng:      rng,
		files:    make(map[string]FileInfo),
		servers:  make(map[string]ServerInfo),
		lastBeat: make(map[string]time.Time),
	}
	err := store.Range([]byte(filePrefix), func(k, v []byte) bool {
		var fi FileInfo
		if err := json.Unmarshal(v, &fi); err == nil {
			s.files[fi.Name] = fi
			if fi.Version > s.verSeq {
				s.verSeq = fi.Version
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	err = store.Range([]byte(serverPrefix), func(k, v []byte) bool {
		var si ServerInfo
		if err := json.Unmarshal(v, &si); err == nil {
			s.servers[si.ID] = si
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// The version sequence restores to the maximum of every persisted
	// file version and the checkpoint, which covers the versions of
	// deleted records. The epoch restarts there too: at worst it is ahead
	// of the last shape mutation, which costs each client one per-entry
	// Validate.
	if v, ok, err := store.Get([]byte(checkpointKey)); err != nil {
		return nil, err
	} else if ok {
		var rec versionCheckpoint
		if err := json.Unmarshal(v, &rec); err == nil && rec.VerSeq > s.verSeq {
			s.verSeq = rec.VerSeq
		}
	}
	s.epoch = s.verSeq
	return s, nil
}

// SetPlacementLiveness makes new-file placement skip servers whose last
// heartbeat is older than deadAfter (0 restores the default: every
// registered server is a candidate). Use the same horizon the repair
// monitor declares death at, so a server repair considers dead never
// receives a fresh file's replica — the client's Prepare to it would
// only fail the whole create. Explicitly pinned replica sets
// (CreateOptions.PreferredReplicas) are not filtered.
func (s *Service) SetPlacementLiveness(deadAfter time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deadAfter = deadAfter
}

// RegisterServer adds (or refreshes) a dataserver.
func (s *Service) RegisterServer(si ServerInfo) error {
	if si.ID == "" || si.ControlAddr == "" {
		return errors.New("nameserver: server needs an id and control address")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.persist(serverPrefix+si.ID, si); err != nil {
		return err
	}
	s.servers[si.ID] = si
	s.lastBeat[si.ID] = time.Now()
	return nil
}

// Heartbeat records liveness for a registered dataserver.
func (s *Service) Heartbeat(serverID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.servers[serverID]; !ok {
		return fmt.Errorf("nameserver: heartbeat from unknown server %q", serverID)
	}
	s.lastBeat[serverID] = time.Now()
	return nil
}

// DeadServers lists registered dataservers whose last heartbeat (or
// registration) is older than the cutoff, sorted by id. Liveness is
// in-memory state: after a nameserver restart every server starts fresh
// and must miss another full timeout before being declared dead.
func (s *Service) DeadServers(cutoff time.Time) []ServerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ServerInfo
	for id, si := range s.servers {
		beat, ok := s.lastBeat[id]
		if !ok {
			// Restored from the store without a beat yet: seed now.
			s.lastBeat[id] = time.Now()
			continue
		}
		if beat.Before(cutoff) {
			out = append(out, si)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PlaceReplacement picks a live registered server to host a new replica
// of the file, excluding servers already holding it (and any ids in
// exclude), preferring racks the file does not already occupy. alive
// filters candidates (nil means all).
func (s *Service) PlaceReplacement(fi FileInfo, exclude []string, alive func(ServerInfo) bool) (ReplicaLoc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	skip := make(map[string]bool, len(fi.Replicas)+len(exclude))
	usedRack := make(map[[2]int]bool)
	for _, r := range fi.Replicas {
		skip[r.ServerID] = true
		if si, ok := s.servers[r.ServerID]; ok {
			usedRack[[2]int{si.Pod, si.Rack}] = true
		}
	}
	for _, id := range exclude {
		skip[id] = true
	}
	var fresh, any []ServerInfo
	ids := make([]string, 0, len(s.servers))
	for id := range s.servers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		si := s.servers[id]
		if skip[id] || (alive != nil && !alive(si)) {
			continue
		}
		any = append(any, si)
		if !usedRack[[2]int{si.Pod, si.Rack}] {
			fresh = append(fresh, si)
		}
	}
	cands := fresh
	if len(cands) == 0 {
		cands = any
	}
	if len(cands) == 0 {
		return ReplicaLoc{}, fmt.Errorf("%w: no live replacement for %s", ErrNoDataservers, fi.Name)
	}
	si := cands[s.rng.Intn(len(cands))]
	return ReplicaLoc{
		ServerID:    si.ID,
		ControlAddr: si.ControlAddr,
		DataAddr:    si.DataAddr,
		Host:        si.Host,
	}, nil
}

// ReplaceReplica swaps one replica location in a file's record. If the
// replaced replica was the primary, the first surviving replica is
// promoted to primary and the replacement appended, so appends keep a
// live orderer.
func (s *Service) ReplaceReplica(name, oldServerID string, repl ReplicaLoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	idx := -1
	for i, r := range fi.Replicas {
		if r.ServerID == oldServerID {
			idx = i
			break
		}
		if r.ServerID == repl.ServerID {
			return fmt.Errorf("nameserver: %s already holds a replica of %s", repl.ServerID, name)
		}
	}
	if idx < 0 {
		return fmt.Errorf("nameserver: %s holds no replica of %s", oldServerID, name)
	}
	replicas := make([]ReplicaLoc, len(fi.Replicas))
	copy(replicas, fi.Replicas)
	if idx == 0 && len(replicas) > 1 {
		// Promote the next live replica; the newcomer goes to the back.
		replicas = append(replicas[1:len(replicas):len(replicas)], repl)
	} else {
		replicas[idx] = repl
	}
	fi.Replicas = replicas
	fi.Version = s.nextVersionLocked()
	if err := s.persist(filePrefix+name, fi); err != nil {
		return err
	}
	s.files[name] = fi
	s.epoch = fi.Version
	return nil
}

// Servers lists registered dataservers sorted by id.
func (s *Service) Servers() []ServerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ServerInfo, 0, len(s.servers))
	for _, si := range s.servers {
		out = append(out, si)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Create allocates a new file: it picks replica locations under the
// fault-domain constraints and records the (empty) file.
func (s *Service) Create(name string, opts CreateOptions) (FileInfo, error) {
	fi, err := s.PlanCreate(name, opts)
	if err != nil {
		return FileInfo{}, err
	}
	return s.InstallFile(fi)
}

// PlanCreate performs the placement half of Create — validation, UUID
// allocation, and replica selection — without recording anything. The
// replicated nameserver proposes the planned FileInfo through Paxos and
// every replica records it via InstallFile, so placement randomness never
// has to be deterministic across replicas.
func (s *Service) PlanCreate(name string, opts CreateOptions) (FileInfo, error) {
	if name == "" || strings.ContainsRune(name, '\x00') {
		return FileInfo{}, errors.New("nameserver: invalid file name")
	}
	chunk := opts.ChunkSize
	if chunk == 0 {
		chunk = DefaultChunkSize
	}
	if chunk < 0 {
		return FileInfo{}, fmt.Errorf("nameserver: negative chunk size %d", chunk)
	}
	replication := opts.Replication
	if replication == 0 {
		replication = DefaultReplication
	}
	if replication < 1 {
		return FileInfo{}, fmt.Errorf("nameserver: replication %d < 1", replication)
	}

	id, err := uuid.New()
	if err != nil {
		return FileInfo{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[name]; dup {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrExists, name)
	}
	var replicas []ReplicaLoc
	if len(opts.PreferredReplicas) > 0 {
		replicas, err = s.pinnedLocked(opts.PreferredReplicas)
	} else {
		replicas, err = s.placeLocked(replication)
	}
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{ID: id, Name: name, ChunkSize: chunk, Replicas: replicas}, nil
}

// nextVersionLocked issues the next FileInfo version. Caller holds s.mu.
func (s *Service) nextVersionLocked() int64 {
	s.verSeq++
	return s.verSeq
}

// versionCheckpoint is the persisted version sequence. Every issued
// version lives in a file record until that record is deleted, so the
// checkpoint is written before any record delete: without it a restart
// could re-issue a deleted record's version, and a client still holding
// it could then get a false OK from Validate against an unrelated record
// that reached the same number.
type versionCheckpoint struct {
	VerSeq int64 `json:"verSeq"`
}

// checkpointLocked burns a version, so the shape mutation about to
// delete records has one of its own, and persists the sequence. Caller
// holds s.mu.
func (s *Service) checkpointLocked() error {
	s.nextVersionLocked()
	return s.persist(checkpointKey, versionCheckpoint{VerSeq: s.verSeq})
}

// Epoch returns the current namespace epoch: it advances when a file is
// installed, deleted, or has a replica replaced — the mutations that can
// make a cached replica set stale — and on Rebuild and restart.
func (s *Service) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// InstallFile records a fully planned file, failing if the name is taken.
// The record is stamped with a fresh version and the namespace epoch
// advances; the stamped record is returned so callers hand clients a
// cache-ready (versioned) FileInfo.
func (s *Service) InstallFile(fi FileInfo) (FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[fi.Name]; dup {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrExists, fi.Name)
	}
	fi.Version = s.nextVersionLocked()
	if err := s.persist(filePrefix+fi.Name, fi); err != nil {
		return FileInfo{}, err
	}
	s.files[fi.Name] = fi
	s.epoch = fi.Version
	return fi, nil
}

// pinnedLocked resolves an explicit replica server list. Caller must hold
// s.mu.
func (s *Service) pinnedLocked(ids []string) ([]ReplicaLoc, error) {
	out := make([]ReplicaLoc, 0, len(ids))
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		si, ok := s.servers[id]
		if !ok {
			return nil, fmt.Errorf("%w: preferred replica %q not registered", ErrNoDataservers, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("nameserver: duplicate preferred replica %q", id)
		}
		seen[id] = true
		out = append(out, ReplicaLoc{
			ServerID:    si.ID,
			ControlAddr: si.ControlAddr,
			DataAddr:    si.DataAddr,
			Host:        si.Host,
		})
	}
	return out, nil
}

// placeLocked picks replica hosts following the §5 default placement
// ("HDFS rack-aware"): the primary on a random server, the second replica
// in the primary's rack, and further replicas in other randomly selected
// racks. Caller must hold s.mu.
func (s *Service) placeLocked(n int) ([]ReplicaLoc, error) {
	ids := make([]string, 0, len(s.servers))
	for id := range s.servers {
		if s.deadAfter > 0 {
			// Liveness filter: a server the repair horizon considers dead
			// must not receive new replicas (its Prepare would fail the
			// create). Servers restored from the store without a beat yet
			// have no entry and stay eligible, matching DeadServers.
			if beat, ok := s.lastBeat[id]; ok && time.Since(beat) > s.deadAfter {
				continue
			}
		}
		ids = append(ids, id)
	}
	if len(ids) < n {
		return nil, fmt.Errorf("%w: need %d, have %d live", ErrNoDataservers, n, len(ids))
	}
	sort.Strings(ids)

	pick := func(filter func(ServerInfo) bool, used map[string]bool) (ServerInfo, bool) {
		var cands []ServerInfo
		for _, id := range ids {
			si := s.servers[id]
			if used[id] {
				continue
			}
			if filter == nil || filter(si) {
				cands = append(cands, si)
			}
		}
		if len(cands) == 0 {
			return ServerInfo{}, false
		}
		return cands[s.rng.Intn(len(cands))], true
	}

	used := make(map[string]bool, n)
	usedRack := make(map[[2]int]bool, n)
	var out []ReplicaLoc

	add := func(si ServerInfo) {
		used[si.ID] = true
		out = append(out, ReplicaLoc{
			ServerID:    si.ID,
			ControlAddr: si.ControlAddr,
			DataAddr:    si.DataAddr,
			Host:        si.Host,
		})
	}

	primary, ok := pick(nil, used)
	if !ok {
		return nil, ErrNoDataservers
	}
	add(primary)
	usedRack[[2]int{primary.Pod, primary.Rack}] = true

	for len(out) < n {
		var si ServerInfo
		if len(out) == 1 {
			// Second replica: same rack as the primary if possible.
			si, ok = pick(func(c ServerInfo) bool {
				return c.Pod == primary.Pod && c.Rack == primary.Rack
			}, used)
		} else {
			ok = false
		}
		if !ok {
			// Remaining replicas: previously unused racks first.
			si, ok = pick(func(c ServerInfo) bool {
				return !usedRack[[2]int{c.Pod, c.Rack}]
			}, used)
		}
		if !ok {
			// Fall back to any unused server.
			si, ok = pick(nil, used)
		}
		if !ok {
			return nil, ErrNoDataservers
		}
		add(si)
		usedRack[[2]int{si.Pod, si.Rack}] = true
	}
	return out, nil
}

// Lookup returns a file's metadata.
func (s *Service) Lookup(name string) (FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fi, nil
}

// Validation statuses returned by Validate for each checked entry.
const (
	// ValidateOK: the cached record is current; renew its lease.
	ValidateOK = "ok"
	// ValidateStale: the record changed; the fresh FileInfo is attached.
	ValidateStale = "stale"
	// ValidateGone: the file no longer exists; drop (or negatively cache)
	// the entry.
	ValidateGone = "gone"
)

// ValidateEntry is one cached record a client asks the nameserver to
// check: the file name and the version the client holds.
type ValidateEntry struct {
	Name    string `json:"name"`
	Version int64  `json:"version"`
}

// ValidateResult is the verdict for one ValidateEntry.
type ValidateResult struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Info carries the fresh record when Status is ValidateStale.
	Info *FileInfo `json:"info,omitempty"`
}

// Validate checks a batch of cached (name, version) pairs in one call —
// the lease-renewal path. clientEpoch is the namespace epoch the client
// last observed: when it still matches, every lease renews wholesale
// (no namespace-shape mutation happened, so replica sets are intact;
// sizes may have grown, but size drift is harmless and self-corrects on
// read). Otherwise each entry is checked against the live table. The
// current epoch is returned for the client to store.
func (s *Service) Validate(clientEpoch int64, entries []ValidateEntry) ([]ValidateResult, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ValidateResult, len(entries))
	if clientEpoch == s.epoch {
		for i, e := range entries {
			out[i] = ValidateResult{Name: e.Name, Status: ValidateOK}
		}
		return out, s.epoch
	}
	for i, e := range entries {
		fi, ok := s.files[e.Name]
		switch {
		case !ok:
			out[i] = ValidateResult{Name: e.Name, Status: ValidateGone}
		case fi.Version == e.Version:
			out[i] = ValidateResult{Name: e.Name, Status: ValidateOK}
		default:
			fresh := fi
			out[i] = ValidateResult{Name: e.Name, Status: ValidateStale, Info: &fresh}
		}
	}
	return out, s.epoch
}

// List returns metadata for every file whose name has the given prefix,
// sorted by name.
func (s *Service) List(prefix string) []FileInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []FileInfo
	for name, fi := range s.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes a file's metadata and returns its last known info so the
// caller can clear the replicas.
func (s *Service) Delete(name string) (FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := s.checkpointLocked(); err != nil {
		return FileInfo{}, err
	}
	if err := s.store.Delete([]byte(filePrefix + name)); err != nil {
		return FileInfo{}, err
	}
	delete(s.files, name)
	s.epoch = s.verSeq
	return fi, nil
}

// ReportSize records a file's new size, as reported by its primary
// dataserver after an append. Sizes never shrink (appends only).
func (s *Service) ReportSize(name string, sizeBytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, ok := s.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if sizeBytes <= fi.SizeBytes {
		return nil
	}
	fi.SizeBytes = sizeBytes
	// A size report bumps the record version (so Validate refreshes the
	// size on stale clients) but not the epoch: the replica set is intact,
	// and the epoch fast path tolerates size-only drift (sizes only grow
	// and every dataserver read self-corrects).
	fi.Version = s.nextVersionLocked()
	if err := s.persist(filePrefix+name, fi); err != nil {
		return err
	}
	s.files[name] = fi
	return nil
}

// FileRecord is a file as reported by a dataserver scan during rebuild.
type FileRecord struct {
	Info FileInfo `json:"info"`
	// LocalSizeBytes is the number of bytes this dataserver holds.
	LocalSizeBytes int64 `json:"localSizeBytes"`
}

// Scanner lists the file metadata stored on one dataserver, used to
// rebuild the nameserver after an unexpected restart.
type Scanner interface {
	ScanFiles(ctx context.Context, server ServerInfo) ([]FileRecord, error)
}

// Rebuild discards the (possibly stale) file table and reconstructs it by
// scanning every registered dataserver, keeping for each file the maximum
// size any replica reports (shorter replicas are still catching up on
// relayed appends). Scan failures of individual servers are tolerated:
// their exclusive files are simply not recovered, mirroring real data
// loss when a server is gone.
func (s *Service) Rebuild(ctx context.Context, sc Scanner) error {
	servers := s.Servers()
	rebuilt := make(map[string]FileInfo)
	for _, si := range servers {
		recs, err := sc.ScanFiles(ctx, si)
		if err != nil {
			continue
		}
		for _, rec := range recs {
			fi := rec.Info
			fi.SizeBytes = rec.LocalSizeBytes
			if prev, ok := rebuilt[fi.Name]; ok {
				if fi.SizeBytes > prev.SizeBytes {
					prev.SizeBytes = fi.SizeBytes
					rebuilt[fi.Name] = prev
				}
			} else {
				rebuilt[fi.Name] = fi
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Clear persisted file records, then write the rebuilt table.
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	for name := range s.files {
		if err := s.store.Delete([]byte(filePrefix + name)); err != nil {
			return err
		}
	}
	s.files = make(map[string]FileInfo, len(rebuilt))
	names := make([]string, 0, len(rebuilt))
	for name := range rebuilt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fi := rebuilt[name]
		// Every rebuilt record gets a fresh version: clients that cached
		// metadata before the crash must revalidate, since the scan may
		// have recovered different sizes or dropped files.
		fi.Version = s.nextVersionLocked()
		if err := s.persist(filePrefix+name, fi); err != nil {
			return err
		}
		s.files[name] = fi
	}
	s.epoch = s.verSeq
	return nil
}

// NumFiles returns the number of files.
func (s *Service) NumFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

func (s *Service) persist(key string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.store.Put([]byte(key), body)
}

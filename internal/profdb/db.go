// Package profdb is the crash-safe distributed profile database: the
// paper's "persistent internal database of profile information"
// (§3.7.2) production-scaled from a single JSON file into a durable,
// bounded, decaying aggregate of profile uploads from many runs.
//
// The contract, layer by layer:
//
//   - Durability (wal.go, atomic.go): every accepted upload is
//     appended to a checksummed write-ahead log and fsync'd before it
//     is acknowledged. Periodically the in-memory aggregate is
//     compacted into a snapshot published by atomic rename, and the
//     WAL is truncated. A kill -9 at any byte offset recovers, on the
//     next Open, to exactly the acked prefix: complete records replay,
//     the torn tail is truncated, never a failed startup.
//   - Aggregation (this file, decay.go): uploads merge arc-weight-wise
//     under the same int64 overflow guard profile.UnmarshalInto
//     applies, with exponential decay per epoch so stale workloads
//     stop driving specialization, and per-program caps plus LRU
//     program eviction bounding memory no matter how much traffic
//     arrives.
//   - Fail-stop: if a durable write fails mid-append the database
//     cannot know what reached the disk, so it refuses further writes
//     (every operation returns the original fault) until the process
//     restarts and recovery re-derives the truth from the log — the
//     same posture as a crash, chosen deliberately over guessing.
//
// The database is program-agnostic: it stores profiles in
// profile.Wire form, keyed by program name. Validating an upload
// against the program it claims to profile is the serving layer's job
// (internal/server does it with CallGraph.UnmarshalInto before any
// byte reaches Ingest).
package profdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"selspec/internal/obs"
	"selspec/internal/profile"
)

// Config tunes the database. The zero value is usable: no decay,
// production defaults for every bound.
type Config struct {
	// HalfLife is the exponential decay half-life for aggregated arc
	// weights (0 = no decay). Negative values are rejected by Validate;
	// use ParseHalfLife for CLI flags so zero is rejected there too.
	HalfLife time.Duration
	// Epoch is the decay quantum (default HalfLife/4 when decay is on).
	// Weights are multiplied by 2^(-Epoch/HalfLife) per elapsed epoch.
	Epoch time.Duration
	// MaxPrograms bounds how many distinct programs the database holds;
	// beyond it the least-recently-ingested program is evicted
	// (default 64).
	MaxPrograms int
	// MaxArcs bounds the aggregate arcs kept per program; after a merge
	// exceeds it, only the heaviest MaxArcs survive (default 65536).
	MaxArcs int
	// MaxEntries bounds the per-program tuple-sample entries kept
	// (default 65536, keeping the lowest method ids).
	MaxEntries int
	// CompactEvery is how many WAL records accumulate before the
	// aggregate is compacted into a snapshot and the WAL truncated
	// (default 256).
	CompactEvery int
	// Metrics, when non-nil, registers the selspec_profdb_* counters.
	Metrics *obs.Registry
	// Now is the clock (default time.Now); tests pin it to drive decay
	// epochs deterministically.
	Now func() time.Time
	// RecoveryHook, when non-nil, runs at the start of recovery, before
	// any state is read — a test seam for observing the "recovering"
	// state from outside (the server's 503-while-replaying path).
	RecoveryHook func()
}

// Validate checks the configuration and fills defaults.
func (c Config) Validate() (Config, error) {
	if c.HalfLife < 0 {
		return c, fmt.Errorf("profdb: half-life must be positive, got %v", c.HalfLife)
	}
	if c.Epoch < 0 {
		return c, fmt.Errorf("profdb: epoch must be positive, got %v", c.Epoch)
	}
	if c.HalfLife > 0 && c.Epoch == 0 {
		c.Epoch = c.HalfLife / 4
		if c.Epoch <= 0 {
			c.Epoch = c.HalfLife
		}
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 64
	}
	if c.MaxArcs <= 0 {
		c.MaxArcs = 1 << 16
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 16
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// Database states, surfaced through State and the server's health
// bodies.
const (
	StateRecovering = "recovering" // Open in progress: WAL replaying
	StateReady      = "ready"      // serving ingests and exports
	StateFailed     = "failed"     // fail-stop after a durable-write fault
	StateClosed     = "closed"
)

// Sentinel errors callers classify on.
var (
	// ErrRecovering: the database is still replaying its WAL; retry
	// shortly (the server maps this to 503 + Retry-After).
	ErrRecovering = errors.New("profdb: recovery in progress")
	// ErrUnknownProgram: no aggregate exists for the requested program.
	ErrUnknownProgram = errors.New("profdb: unknown program")
	// ErrClosed: the database has been closed.
	ErrClosed = errors.New("profdb: closed")
)

// RejectError marks an upload the database refused (overflow, bounds);
// the caller answers 4xx, not 5xx, and must not retry unchanged.
type RejectError struct{ Msg string }

func (e *RejectError) Error() string { return "profdb: rejected: " + e.Msg }

const (
	walName  = "wal.log"
	snapName = "snapshot.json"
)

// snapFile is the snapshot's JSON layout: the full aggregate state as
// of Seq, programs sorted by name.
type snapFile struct {
	Version  int           `json:"version"`
	Seq      uint64        `json:"seq"`
	Programs []snapProgram `json:"programs"`
}

type snapProgram struct {
	Name    string        `json:"name"`
	Epoch   int64         `json:"epoch"`
	LastSeq uint64        `json:"last_seq"`
	Profile *profile.Wire `json:"profile"`
}

const snapVersion = 1

// arcID keys one aggregated arc.
type arcID struct{ site, callee int }

// entryAgg is one method's merged tuple sample.
type entryAgg struct {
	tuples   map[string][]int
	overflow bool
}

// programAgg is one program's aggregate: decayed arc weights plus the
// union of tuple samples. lastSeq orders programs for LRU eviction and
// survives compaction, so eviction decisions replay identically.
type programAgg struct {
	epoch   int64
	lastSeq uint64
	arcs    map[arcID]int64
	entries map[int]*entryAgg
}

// DB is the profile database. Create with Open (synchronous recovery)
// or OpenAsync (recovery in the background, state observable); all
// methods are safe for concurrent use.
type DB struct {
	dir string
	cfg Config

	mu        sync.Mutex
	state     string
	failErr   error // the fault that moved state to failed
	wal       *os.File
	walSize   int64
	walRecs   int
	seq       uint64
	progs     map[string]*programAgg
	openErr   error // recovery failure (OpenAsync)
	recovered chan struct{}

	mIngests, mRejects, mWALBytes         *obs.Counter
	mCompactions, mRecoveries, mTruncated *obs.Counter
}

// Open opens (creating if needed) the database in dir and runs
// recovery before returning: load the last good snapshot, replay the
// WAL tail, truncate at the first torn or corrupt record.
func Open(dir string, cfg Config) (*DB, error) {
	d, err := newDB(dir, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// OpenAsync validates the configuration synchronously, then runs
// recovery in a background goroutine so a server can start serving
// run traffic immediately while the WAL replays. Until recovery
// completes, State reports StateRecovering and Ingest/Export return
// ErrRecovering; WaitReady blocks until the database is usable.
func OpenAsync(dir string, cfg Config) (*DB, error) {
	d, err := newDB(dir, cfg)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := d.recover(); err != nil {
			d.mu.Lock()
			d.state = StateFailed
			d.failErr = err
			d.openErr = err
			close(d.recovered)
			d.mu.Unlock()
		}
	}()
	return d, nil
}

func newDB(dir string, cfg Config) (*DB, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DB{
		dir:       dir,
		cfg:       cfg,
		state:     StateRecovering,
		progs:     map[string]*programAgg{},
		recovered: make(chan struct{}),
	}
	reg := cfg.Metrics
	d.mIngests = reg.Counter("selspec_profdb_ingests_total")
	d.mRejects = reg.Counter("selspec_profdb_rejects_total")
	d.mWALBytes = reg.Counter("selspec_profdb_wal_bytes_total")
	d.mCompactions = reg.Counter("selspec_profdb_compactions_total")
	d.mRecoveries = reg.Counter("selspec_profdb_recoveries_total")
	d.mTruncated = reg.Counter("selspec_profdb_truncated_records_total")
	return d, nil
}

// recover rebuilds the aggregate: snapshot, then the WAL records past
// it, truncating the log at the first record that does not check out.
// A corrupt WAL tail is an expected crash artifact and never fails
// recovery; only environmental errors (unreadable directory, corrupt
// snapshot — which atomic publication should make impossible) do.
//
// It runs WITHOUT d.mu: until it flips the state to ready (under the
// lock, at the very end), every public operation bails out at the
// state check without touching aggregate memory, so recovery has the
// aggregates to itself and State/Stats stay responsive while a large
// WAL replays — the server keeps answering /healthz mid-recovery.
func (d *DB) recover() error {
	if d.cfg.RecoveryHook != nil {
		d.cfg.RecoveryHook()
	}
	// A leftover snapshot tmp is a compaction the crash interrupted
	// before publication; the data it would have held is still in the
	// WAL, so it is garbage, not state.
	os.Remove(filepath.Join(d.dir, snapName+".tmp"))

	if data, err := os.ReadFile(filepath.Join(d.dir, snapName)); err == nil {
		var sf snapFile
		if jerr := json.Unmarshal(data, &sf); jerr != nil {
			return fmt.Errorf("profdb: corrupt snapshot (atomic publication violated?): %v", jerr)
		}
		if sf.Version != snapVersion {
			return fmt.Errorf("profdb: unsupported snapshot version %d", sf.Version)
		}
		d.seq = sf.Seq
		for _, sp := range sf.Programs {
			if sp.Profile == nil {
				return fmt.Errorf("profdb: corrupt snapshot: program %q has no profile", sp.Name)
			}
			if verr := validateWire(sp.Profile); verr != nil {
				return fmt.Errorf("profdb: corrupt snapshot: %v", verr)
			}
			agg := &programAgg{epoch: sp.Epoch, lastSeq: sp.LastSeq,
				arcs: map[arcID]int64{}, entries: map[int]*entryAgg{}}
			for _, a := range sp.Profile.Arcs {
				agg.arcs[arcID{a.Site, a.Callee}] += a.Weight
			}
			for _, e := range sp.Profile.Entries {
				agg.entries[e.Method] = entryFromWire(e)
			}
			d.progs[sp.Name] = agg
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("profdb: reading snapshot: %w", err)
	}

	wal, err := os.OpenFile(filepath.Join(d.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("profdb: opening wal: %w", err)
	}
	data, err := readAll(wal)
	if err != nil {
		wal.Close()
		return fmt.Errorf("profdb: reading wal: %w", err)
	}
	res := scanWAL(data)
	for _, rec := range res.records {
		if rec.Seq <= d.seq {
			continue // already folded into the snapshot
		}
		d.applyLocked(rec)
		d.seq = rec.Seq
		d.walRecs++
	}
	if res.truncated {
		if err := wal.Truncate(res.goodOff); err != nil {
			wal.Close()
			return fmt.Errorf("profdb: truncating corrupt wal tail: %w", err)
		}
		if err := wal.Sync(); err != nil {
			wal.Close()
			return fmt.Errorf("profdb: syncing truncated wal: %w", err)
		}
		d.mTruncated.Inc()
	}
	if _, err := wal.Seek(res.goodOff, 0); err != nil {
		wal.Close()
		return fmt.Errorf("profdb: seeking wal: %w", err)
	}
	d.mu.Lock()
	if d.state == StateClosed { // Close raced recovery; stay closed
		d.mu.Unlock()
		wal.Close()
		close(d.recovered)
		return nil
	}
	d.wal = wal
	d.walSize = res.goodOff
	d.state = StateReady
	d.mu.Unlock()
	d.mRecoveries.Inc()
	close(d.recovered)
	return nil
}

func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	n, err := f.ReadAt(data, 0)
	if int64(n) == st.Size() {
		return data, nil
	}
	return nil, err
}

// State reports the database's lifecycle state.
func (d *DB) State() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Err returns the terminal fault when State is StateFailed.
func (d *DB) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failErr
}

// WaitReady blocks until recovery completes (returning any recovery
// error) or ctx is done.
func (d *DB) WaitReady(ctx context.Context) error {
	select {
	case <-d.recovered:
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.openErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases the WAL handle. It does not compact: the on-disk
// state is already durable and recovery is cheap, and keeping the
// close path trivial means a clean shutdown and a SIGKILL leave disk
// states with identical recovery semantics.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateClosed {
		return nil
	}
	d.state = StateClosed
	if d.wal != nil {
		return d.wal.Close()
	}
	return nil
}

// RecordReject counts an upload the serving layer rejected before it
// reached Ingest (failed validation against the bound program), so the
// selspec_profdb_rejects_total series covers every refused upload no
// matter which layer refused it.
func (d *DB) RecordReject() { d.mRejects.Inc() }

// Ingest durably stores one validated upload for program and merges it
// into the aggregate, returning the upload's sequence number once — and
// only once — the record is fsync'd. The caller must have validated w
// against the program (the server does; trusting callers get the
// structural re-validation only).
//
// Failure modes: *RejectError (bounds/overflow — the aggregate and the
// log are untouched), ErrRecovering, ErrClosed, or a durable-write
// fault, after which the database is failed fail-stop: the disk state
// is ambiguous, so every subsequent call returns the original fault
// until a restart re-derives the truth via recovery.
func (d *DB) Ingest(program string, w *profile.Wire) (uint64, error) {
	if program == "" {
		return 0, &RejectError{Msg: "empty program name"}
	}
	if err := validateWire(w); err != nil {
		d.mRejects.Inc()
		return 0, &RejectError{Msg: err.Error()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return 0, err
	}
	epoch := d.cfg.epochOf(d.cfg.Now())

	// Overflow pre-check against the current (undecayed) aggregate:
	// decay only shrinks weights, so a sum that fits undecayed fits
	// after the merge applies decay too. Rejecting here keeps both the
	// log and memory untouched.
	if agg := d.progs[program]; agg != nil {
		sums := map[arcID]int64{}
		for _, a := range w.Arcs {
			id := arcID{a.Site, a.Callee}
			prior := agg.arcs[id] + sums[id]
			if prior > math.MaxInt64-a.Weight {
				d.mRejects.Inc()
				return 0, &RejectError{Msg: fmt.Sprintf("arc %d->%d weight overflow", a.Site, a.Callee)}
			}
			sums[id] += a.Weight
		}
	}

	rec := &walRecord{Seq: d.seq + 1, Program: program, Epoch: epoch, Profile: w}
	frame, err := encodeRecord(rec)
	if err != nil {
		d.mRejects.Inc()
		return 0, &RejectError{Msg: err.Error()}
	}
	// The durable section. Any fault here leaves the disk in an
	// unknowable state (bytes may or may not have reached the platter),
	// so the database fail-stops exactly as if the process had died:
	// the answer lives in the log, and recovery reads it on restart.
	if err := writeFull(d.wal, frame); err != nil {
		return 0, d.failLocked(err)
	}
	if err := syncFile(d.wal); err != nil {
		return 0, d.failLocked(err)
	}
	d.walSize += int64(len(frame))
	d.mWALBytes.Add(uint64(len(frame)))

	d.applyLocked(rec)
	d.seq = rec.Seq
	d.walRecs++
	d.mIngests.Inc()

	if d.walRecs >= d.cfg.CompactEvery {
		d.compactLocked()
	}
	return rec.Seq, nil
}

func (d *DB) usableLocked() error {
	switch d.state {
	case StateReady:
		return nil
	case StateRecovering:
		return ErrRecovering
	case StateClosed:
		return ErrClosed
	default:
		return fmt.Errorf("profdb: storage failed (restart to recover): %w", d.failErr)
	}
}

func (d *DB) failLocked(err error) error {
	d.state = StateFailed
	d.failErr = err
	return fmt.Errorf("profdb: durable write failed (database is now fail-stop; restart to recover): %w", err)
}

// applyLocked merges one record into the aggregate — the single code
// path shared by live ingests and WAL replay, which is what makes
// recovery bit-identical to the original sequence of acked uploads.
func (d *DB) applyLocked(rec *walRecord) {
	agg := d.progs[rec.Program]
	if agg == nil {
		agg = &programAgg{epoch: rec.Epoch, arcs: map[arcID]int64{}, entries: map[int]*entryAgg{}}
		d.progs[rec.Program] = agg
		d.evictLocked(rec.Program)
	}
	agg.advance(rec.Epoch, d.cfg)
	for _, a := range rec.Profile.Arcs {
		id := arcID{a.Site, a.Callee}
		// Replayed records were pre-checked at ingest; saturate rather
		// than wrap if a decayed aggregate plus an old record would
		// somehow exceed the range (cannot happen via Ingest, belt and
		// suspenders for hand-fed logs).
		if agg.arcs[id] > math.MaxInt64-a.Weight {
			agg.arcs[id] = math.MaxInt64
		} else {
			agg.arcs[id] += a.Weight
		}
	}
	for _, e := range rec.Profile.Entries {
		mergeEntry(agg.entries, e, d.cfg.MaxEntries)
	}
	agg.lastSeq = rec.Seq
	agg.capArcs(d.cfg.MaxArcs)
}

// evictLocked enforces MaxPrograms by dropping the program with the
// oldest lastSeq (ties broken by name), never the one just added.
func (d *DB) evictLocked(just string) {
	for len(d.progs) > d.cfg.MaxPrograms {
		victim := ""
		var victimSeq uint64
		for name, agg := range d.progs {
			if name == just {
				continue
			}
			if victim == "" || agg.lastSeq < victimSeq ||
				(agg.lastSeq == victimSeq && name < victim) {
				victim, victimSeq = name, agg.lastSeq
			}
		}
		if victim == "" {
			return
		}
		delete(d.progs, victim)
	}
}

// advance applies decay for the epochs elapsed since the aggregate was
// last touched. Weights that decay to zero are dropped entirely: an
// idle program's aggregate shrinks toward empty rather than lingering
// as dust.
func (a *programAgg) advance(to int64, cfg Config) {
	if to <= a.epoch || cfg.HalfLife <= 0 {
		if to > a.epoch {
			a.epoch = to
		}
		return
	}
	k := to - a.epoch
	f := decayFactor(cfg.Epoch, cfg.HalfLife)
	for id, w := range a.arcs {
		if nw := decayWeight(w, f, k); nw <= 0 {
			delete(a.arcs, id)
		} else {
			a.arcs[id] = nw
		}
	}
	a.epoch = to
}

// capArcs keeps only the MaxArcs heaviest arcs (ties broken by
// (site, callee) so the survivor set is deterministic).
func (a *programAgg) capArcs(maxArcs int) {
	if len(a.arcs) <= maxArcs {
		return
	}
	type wa struct {
		id arcID
		w  int64
	}
	all := make([]wa, 0, len(a.arcs))
	for id, w := range a.arcs {
		all = append(all, wa{id, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		if all[i].id.site != all[j].id.site {
			return all[i].id.site < all[j].id.site
		}
		return all[i].id.callee < all[j].id.callee
	})
	for _, v := range all[maxArcs:] {
		delete(a.arcs, v.id)
	}
}

func entryFromWire(e profile.WireEntry) *entryAgg {
	agg := &entryAgg{tuples: map[string][]int{}, overflow: e.Overflow}
	if e.Overflow {
		agg.tuples = nil
		return agg
	}
	for _, t := range e.Tuples {
		agg.tuples[tupleKey(t)] = t
	}
	return agg
}

// mergeEntry unions one uploaded tuple sample into the aggregate,
// with the same overflow semantics profile.RecordEntry applies: past
// MaxTupleSample distinct tuples the sample degrades to "anything was
// seen". maxEntries bounds distinct methods; new methods beyond it are
// dropped (lowest method ids win, since they were there first).
func mergeEntry(entries map[int]*entryAgg, e profile.WireEntry, maxEntries int) {
	agg := entries[e.Method]
	if agg == nil {
		if len(entries) >= maxEntries {
			return
		}
		agg = &entryAgg{tuples: map[string][]int{}}
		entries[e.Method] = agg
	}
	if agg.overflow {
		return
	}
	if e.Overflow {
		agg.overflow = true
		agg.tuples = nil
		return
	}
	for _, t := range e.Tuples {
		k := tupleKey(t)
		if _, ok := agg.tuples[k]; ok {
			continue
		}
		if len(agg.tuples) >= profile.MaxTupleSample {
			agg.overflow = true
			agg.tuples = nil
			return
		}
		agg.tuples[k] = t
	}
}

func tupleKey(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return "t" + fmt.Sprint(parts)
}

// compactLocked folds the aggregate into a snapshot published by
// atomic rename, then truncates the WAL. Failure anywhere is non-fatal
// and leaves durability intact:
//
//   - before the rename: the old snapshot and the full WAL still
//     reconstruct everything (the stale tmp is removed at recovery);
//   - after the rename but before the truncate: replay skips records
//     at or below the snapshot's seq, so the duplicate tail is
//     harmless and the next compaction retries the truncate.
func (d *DB) compactLocked() {
	sf := snapFile{Version: snapVersion, Seq: d.seq}
	names := make([]string, 0, len(d.progs))
	for name := range d.progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg := d.progs[name]
		sf.Programs = append(sf.Programs, snapProgram{
			Name: name, Epoch: agg.epoch, LastSeq: agg.lastSeq, Profile: agg.wire(),
		})
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return
	}
	if err := WriteFileAtomic(filepath.Join(d.dir, snapName), data, 0o644); err != nil {
		return // snapshot stays old; WAL keeps everything
	}
	if err := d.wal.Truncate(0); err != nil {
		return // duplicate records ≤ seq; replay skips them
	}
	if _, err := d.wal.Seek(0, 0); err != nil {
		_ = d.failLocked(err) // cannot place further appends safely
		return
	}
	if err := d.wal.Sync(); err != nil {
		_ = d.failLocked(err)
		return
	}
	d.walSize = 0
	d.walRecs = 0
	d.mCompactions.Inc()
}

// wire renders one aggregate in canonical profile.Wire form: arcs by
// (site, callee), entries by method, tuples in numeric-lexicographic
// order — so equal aggregates marshal to equal bytes.
func (a *programAgg) wire() *profile.Wire {
	w := &profile.Wire{Version: profile.FormatVersion}
	for id, wt := range a.arcs {
		w.Arcs = append(w.Arcs, profile.WireArc{Site: id.site, Callee: id.callee, Weight: wt})
	}
	for m, e := range a.entries {
		we := profile.WireEntry{Method: m, Overflow: e.overflow}
		for _, t := range e.tuples {
			we.Tuples = append(we.Tuples, t)
		}
		w.Entries = append(w.Entries, we)
	}
	w.Sort()
	if w.Arcs == nil {
		w.Arcs = []profile.WireArc{}
	}
	return w
}

// Export returns program's aggregate, decayed to the current epoch, in
// canonical wire form — directly consumable by CallGraph.LoadWire
// and byte-stable for a fixed logical time.
func (d *DB) Export(program string) (*profile.Wire, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	agg := d.progs[program]
	if agg == nil {
		return nil, ErrUnknownProgram
	}
	agg.advance(d.cfg.epochOf(d.cfg.Now()), d.cfg)
	return agg.wire(), nil
}

// Programs lists the programs with aggregates, sorted (empty while
// recovery still owns the aggregate maps).
func (d *DB) Programs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateRecovering {
		return nil
	}
	names := make([]string, 0, len(d.progs))
	for name := range d.progs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats is a point-in-time operational summary.
type Stats struct {
	State    string `json:"state"`
	Programs int    `json:"programs"`
	Seq      uint64 `json:"seq"`
	WALBytes int64  `json:"wal_bytes"`
}

// Stats snapshots the database for health bodies and tests. During
// recovery only the state is reported: the aggregate fields belong to
// the recovery goroutine until it publishes them.
func (d *DB) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateRecovering {
		return Stats{State: d.state}
	}
	return Stats{State: d.state, Programs: len(d.progs), Seq: d.seq, WALBytes: d.walSize}
}

package xserver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xproto"
)

// Striped window table. The server's window index is sharded into
// numStripes stripes by XID; within a stripe a window's slot is
// (xid - baseXID) / numStripes, and slots are grouped into pageSlots-
// slot pages reached through a per-stripe page directory. A lookup is
// three atomic loads (directory, page, slot) and a bounds check — no
// map hashing, no lock. XIDs are allocated sequentially from baseXID,
// which spreads consecutive windows across stripes (adjacent ids land
// on adjacent stripes) and keeps each live page dense.
//
// XIDs are never reused, so a table of slots would grow with every
// window ever created. Pages instead count their occupants: destroying
// a page's last window drops the page from the directory, so the index
// holds pages only for live windows. The directory itself keeps one
// pointer per page ever touched (8 bytes per pageSlots*numStripes
// XIDs). Each stripe keeps its most recently dropped page as a spare
// for the next page it links, so a create/destroy cycle on an
// otherwise empty range does not allocate; a reader still holding the
// page from its old position sees a window whose id is not the one it
// asked for, and lookup rejects it.
//
// The per-stripe RWMutex serializes *structural* writers within a
// stripe: window creation (slot insert + parent attach), map/unmap,
// restack, and event-mask changes take the stripes of every touched
// window. Readers never take it — all reachable per-window state is
// atomic or copy-on-write, so the read side stays lock-free even while
// a stripe is held. Acquiring multiple stripes always goes through the
// lockStripes2 doorway, which orders acquisition by ascending stripe
// index; the lockorder analyzer flags any stripe-mutex manipulation
// outside the doorway functions in this file, so the ordering invariant
// is machine-checked rather than conventional.
//
// Lock hierarchy (outermost first):
//
//	Server.mu  >  stripes (ascending index)  >  Server.inputMu  >  Conn.qMu / Conn.errMu / Conn.resMu / Conn.faultMu
//
// The four connection locks are unordered leaf peers: nothing is
// acquired while one is held. Holding Server.mu exclusively implies
// every stripe: stripe holders always hold Server.mu shared, so an
// exclusive holder has the table to itself. Destroy, reparent,
// connection close and a KillTarget fault's destroy rely on that
// escalation instead of acquiring stripes.

const (
	numStripes  = 64
	stripeMask  = numStripes - 1
	stripeShift = 6 // log2(numStripes)

	// pageSlots keeps a winPage (264 bytes) under 512 bytes, above
	// which the Go allocator gives pointer-holding objects a per-object
	// type header; 64-slot pages measured about 15% slower first
	// manages on freshly started servers.
	pageSlots = 32
	pageMask  = pageSlots - 1
	pageShift = 5 // log2(pageSlots)

	// baseXID is the first XID allocID hands out. IDs below it (None,
	// PointerRoot) are never windows.
	baseXID = 0x200000
)

// winPage is pageSlots consecutive slots of one stripe. live counts
// the non-nil slots; the page is unlinked from its directory when it
// drops to zero.
type winPage struct {
	live  atomic.Int32
	slots [pageSlots]atomic.Pointer[window]
}

// pageDir is one stripe's page directory. The slice itself is
// immutable once published (growth copies into a fresh directory); the
// entries are individually atomic so pages can be linked and unlinked
// without cloning it.
type pageDir []atomic.Pointer[winPage]

type stripe struct {
	mu  sync.RWMutex
	dir atomic.Pointer[pageDir]
	// spare is an empty page unlinked from dir, reused by the next
	// link. Guarded like the index writes: the stripe or Server.mu
	// exclusively.
	spare *winPage
	_     [24]byte // pad to a cache line so stripes don't false-share
}

func stripeIndex(id xproto.XID) uint32 {
	return uint32(id-baseXID) & stripeMask
}

// slotOf splits id into its stripe, page-directory index and slot
// within the page.
func (s *Server) slotOf(id xproto.XID) (st *stripe, page, slot uint32) {
	k := uint32(id - baseXID)
	i := k >> stripeShift
	return &s.stripes[k&stripeMask], i >> pageShift, i & pageMask
}

// lookup returns the live window for id, or nil if the id is unknown
// or destroyed. Lock-free: safe from any context.
func (s *Server) lookup(id xproto.XID) *window {
	if id < baseXID {
		return nil
	}
	st, pi, si := s.slotOf(id)
	dp := st.dir.Load()
	if dp == nil || pi >= uint32(len(*dp)) {
		return nil
	}
	pg := (*dp)[pi].Load()
	if pg == nil {
		return nil
	}
	w := pg.slots[si].Load()
	if w == nil || w.id != id || w.destroyed.Load() {
		return nil
	}
	return w
}

// indexPut publishes w in its stripe's index, growing the directory or
// linking a fresh page as needed. Caller must hold w's stripe or
// Server.mu exclusively.
func (s *Server) indexPut(w *window) {
	st, pi, si := s.slotOf(w.id)
	dp := st.dir.Load()
	var dir pageDir
	if dp != nil {
		dir = *dp
	}
	if pi >= uint32(len(dir)) {
		nd := make(pageDir, max(2*len(dir), int(pi)+1))
		for j := range dir {
			nd[j].Store(dir[j].Load())
		}
		st.dir.Store(&nd)
		dir = nd
	}
	pg := dir[pi].Load()
	if pg == nil {
		if pg, st.spare = st.spare, nil; pg == nil {
			pg = &winPage{}
		}
		dir[pi].Store(pg)
	}
	pg.slots[si].Store(w)
	pg.live.Add(1)
	s.winCount.Add(1)
}

// indexDel clears w's slot and unlinks its page when w was the last
// window on it. Caller must hold w's stripe or Server.mu exclusively.
func (s *Server) indexDel(w *window) {
	st, pi, si := s.slotOf(w.id)
	dir := *st.dir.Load()
	pg := dir[pi].Load()
	pg.slots[si].Store(nil)
	if pg.live.Add(-1) == 0 {
		dir[pi].Store(nil)
		st.spare = pg
	}
	s.winCount.Add(-1)
}

// LockObserver receives stripe-contention telemetry from the
// stripe-acquire slow path. obs wires a registry-backed implementation
// via SetLockObserver; the hook must be safe for concurrent use and
// must not call back into the server.
type LockObserver interface {
	// StripeWait reports one contended stripe acquisition and how long
	// the acquirer waited, in nanoseconds.
	StripeWait(ns int64)
}

// SetLockObserver installs (or, with nil, removes) the server's stripe
// contention observer.
func (s *Server) SetLockObserver(lo LockObserver) {
	if lo == nil {
		s.lockObs.Store(nil)
		return
	}
	s.lockObs.Store(&lo)
}

// acquireStripe takes one stripe's write lock, recording contention on
// the slow path. It is the only place a stripe mutex is locked.
func (s *Server) acquireStripe(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	t0 := time.Now()
	st.mu.Lock()
	if lo := s.lockObs.Load(); lo != nil {
		(*lo).StripeWait(time.Since(t0).Nanoseconds())
	}
}

// lockStripe acquires the stripe owning id. Caller must hold Server.mu
// shared and must release with unlockStripe.
func (s *Server) lockStripe(id xproto.XID) *stripe {
	st := &s.stripes[stripeIndex(id)]
	s.acquireStripe(st)
	return st
}

func (s *Server) unlockStripe(st *stripe) {
	st.mu.Unlock()
}

// lockStripes2 acquires the stripes owning a and b in ascending stripe
// order — the locking invariant the lockorder analyzer enforces. The
// second return is nil when both ids share a stripe. Caller must hold
// Server.mu shared and must release with unlockStripes2.
func (s *Server) lockStripes2(a, b xproto.XID) (*stripe, *stripe) {
	ia, ib := stripeIndex(a), stripeIndex(b)
	if ia == ib {
		st := &s.stripes[ia]
		s.acquireStripe(st)
		return st, nil
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	s1, s2 := &s.stripes[ia], &s.stripes[ib]
	s.acquireStripe(s1)
	s.acquireStripe(s2)
	return s1, s2
}

func (s *Server) unlockStripes2(s1, s2 *stripe) {
	if s2 != nil {
		s2.mu.Unlock()
	}
	s1.mu.Unlock()
}

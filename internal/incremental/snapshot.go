package incremental

import (
	"sync/atomic"

	"xmlnorm/internal/xfd"
)

// Snapshot is one published epoch of a Session: the verdict and
// witness report as of a committed transaction, immutable and safe to
// read from any goroutine for as long as the caller holds it. A
// reader that pins a Snapshot keeps reading that epoch's answers even
// while later transactions commit — the Session never mutates a
// published Snapshot's verdict, it swaps in a new one.
//
// The witness REPORT of a violated epoch is sealed into the Snapshot
// before any caller can hold it: at publish once the Session is in
// reporting mode, or, for the epoch current when the Session enters
// it, at that transition (see Session.Snapshot). A seal walks the
// violated FDs' tuples up to each first conflict but enters only the
// LHS groups the refcounts hold as conflicted. An epoch whose
// transaction touched no cluster is not sealed at all: it shares the
// previous epoch's report slice, which is that epoch's answer too.
// Reading it is a lock-free pointer load. Verdict-only consumers
// (Session.Violated, Session.Satisfied) therefore never pay the
// witness pass, and report consumers pay it at most once per epoch.
type Snapshot struct {
	seq      uint64
	total    int   // len(Σ) of the checker set
	violated []int // Σ indices, sorted; nil when satisfied
	report   atomic.Pointer[[]xfd.Violated]
}

// Seq is the epoch number: 1 for the Snapshot New publishes, +1 per
// committed transaction. Two Snapshots from one Session with equal Seq
// are the same epoch.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// Satisfied reports T ⊨ Σ as of this epoch.
func (sn *Snapshot) Satisfied() bool { return len(sn.violated) == 0 }

// Total returns the number of FDs in the checker set (violated or
// not) — the denominator for "k of n violated" displays.
func (sn *Snapshot) Total() int { return sn.total }

// Violated returns the indices (Σ order, sorted) of the FDs violated
// in this epoch. The slice is the caller's to keep.
func (sn *Snapshot) Violated() []int {
	if len(sn.violated) == 0 {
		return nil
	}
	out := make([]int, len(sn.violated))
	copy(out, sn.violated)
	return out
}

// Report returns this epoch's violation report — bit-identical (FDs,
// order, witness tuples) to a from-scratch CheckerSet.Violations pass
// over the epoch's tree — or nil when satisfied. Treat the slice and
// its witnesses as read-only: every reader of the epoch shares them.
// Report never blocks: Session.Snapshot hands out only sealed epochs,
// so this is one atomic load however many commits have displaced the
// epoch since.
func (sn *Snapshot) Report() []xfd.Violated {
	if r := sn.report.Load(); r != nil {
		return *r
	}
	return nil
}

// sealLocked computes sn's witness report from the live tree and
// stores it. The caller holds writeMu, and the tree and the refcounts
// must be in sn's committed state. The pass decides the violated FDs
// only, each over only the LHS groups its refcounts hold as conflicted
// (xfd.CheckerSet.WitnessReportGroups): the first conflict in
// enumeration order lies in one of them, so the witnesses are those of
// a full pass, while no other group is entered or has a tuple cloned.
// It still walks the tuples up to each FD's first conflict.
func (s *Session) sealLocked(sn *Snapshot) {
	groups := make(xfd.GroupFilter, len(sn.violated))
	for i := range s.clusters {
		cst := &s.clusters[i]
		for li, fi := range cst.fds {
			if len(cst.st[li].conflicted) > 0 {
				groups[fi] = cst.st[li].conflicted
			}
		}
	}
	rep := s.cs.WitnessReportGroups(s.ix.Tree(), groups)
	sn.report.Store(&rep)
}

// Snapshot returns the last published epoch. Safe for concurrent use;
// never observes a transaction that has not committed.
//
// The first call puts the Session in REPORTING MODE, sticky for its
// lifetime: it waits out an open transaction (so never make it from
// inside one), seals the current epoch's witness report under the
// writer lock, and from then on every commit seals the new epoch's
// report at publish. Every Snapshot a caller holds therefore keeps its
// own report, however many commits displace it. Later calls are one
// atomic load and never block on a writer.
func (s *Session) Snapshot() *Snapshot {
	if !s.reporting.Load() {
		s.enterReporting()
	}
	return s.snap.Load()
}

// enterReporting seals the current epoch and then turns reporting mode
// on, both under the writer lock: a caller that sees the mode on only
// ever loads sealed epochs, and no commit can displace the current one
// in between.
func (s *Session) enterReporting() {
	s.writeMu.Lock()
	if sn := s.snap.Load(); len(sn.violated) > 0 && sn.report.Load() == nil {
		s.sealLocked(sn)
	}
	s.reporting.Store(true)
	s.writeMu.Unlock()
}

// publishLocked seals the current fold state into a fresh Snapshot and
// swaps it in. Writer-side: the caller holds writeMu (or, in New, owns
// the session exclusively), and the tree must be in its committed
// shape. The verdict is read off the conflicted counters in O(Σ); the
// witness pass runs only in reporting mode and only when violated.
func (s *Session) publishLocked() {
	s.seq++
	sn := &Snapshot{seq: s.seq, total: s.cs.Len(), violated: s.violatedNow()}
	if len(sn.violated) > 0 && s.reporting.Load() {
		s.sealLocked(sn)
	}
	s.snap.Store(sn)
}

// carryForwardLocked publishes the next epoch of a transaction that
// touched no cluster. Every cluster's projection of the tree is then
// the previous epoch's, tuple for tuple and in the same order, so the
// verdict and the first-conflict witnesses are too: the new Snapshot
// shares the previous one's violated slice and sealed report (or its
// lack of one, outside reporting mode) instead of re-deriving them.
// Writer-side, like publishLocked.
func (s *Session) carryForwardLocked() {
	prev := s.snap.Load()
	s.seq++
	sn := &Snapshot{seq: s.seq, total: prev.total, violated: prev.violated}
	sn.report.Store(prev.report.Load())
	s.snap.Store(sn)
}

// fault.go pins the per-connection fault-schedule leaf: faultMu sits
// below the stripes beside qMu, errMu and resMu. Deciding a fault under
// faultMu, releasing it, and only then taking the server lock for the
// kill is clean, as is deciding under an already-held server lock;
// taking the server lock or a stripe, directly or through a call, or a
// peer leaf while faultMu is held is a finding.

package lockorder

import "sync"

// FaultConn models a connection's fault schedule behind its own leaf
// lock.
type FaultConn struct {
	faultMu sync.Mutex
	errMu   sync.Mutex
	seen    int
	fired   int
}

// decide is the sanctioned leaf shape: faultMu guards only the
// schedule's counters.
func (c *FaultConn) decide() bool {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	c.seen++
	if c.seen%2 != 0 {
		return false
	}
	c.fired++
	return true
}

// Gate decides, releases the leaf, then takes the server lock for the
// kill. Clean.
func (c *FaultConn) Gate(s *Striped, id int) bool {
	if !c.decide() {
		return false
	}
	s.mu.Lock()
	delete(s.items, id)
	s.mu.Unlock()
	return true
}

// Flush decides each op while holding the server lock, descending from
// it to the leaf. Clean.
func (c *FaultConn) Flush(s *Striped, ids []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if c.decide() {
			delete(s.items, id)
		}
	}
}

// KillUnderLeaf inverts the hierarchy: the server lock taken under the
// leaf.
func (c *FaultConn) KillUnderLeaf(s *Striped, id int) {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	s.mu.Lock() // want `KillUnderLeaf acquires the server lock while holding faultMu`
	delete(s.items, id)
	s.mu.Unlock()
}

// TouchUnderLeaf reaches a stripe through a call while holding the
// leaf.
func (c *FaultConn) TouchUnderLeaf(s *Striped, id int) {
	c.faultMu.Lock()
	s.bump(id) // want `TouchUnderLeaf calls bump, which acquires a stripe, while holding faultMu`
	c.faultMu.Unlock()
}

// NoteUnderLeaf holds two connection leaves at once.
func (c *FaultConn) NoteUnderLeaf() {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	c.errMu.Lock() // want `acquires errMu while holding faultMu; the connection leaf locks are unordered peers`
	c.errMu.Unlock()
}

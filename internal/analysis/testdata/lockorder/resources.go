// resources.go pins the per-connection resource-set leaf: resMu sits
// below the stripes beside qMu and errMu. Recording a window while a
// stripe is held is clean; taking a stripe, directly or through a
// call, or a peer leaf while resMu is held is a finding.

package lockorder

import "sync"

// ResConn models the connection's resource sets (windows it owns or
// selects on) behind their own leaf lock.
type ResConn struct {
	resMu sync.Mutex
	qMu   sync.Mutex
	owned map[int]bool
}

// track is the sanctioned leaf shape: resMu guards only the set.
func (c *ResConn) track(id int) {
	c.resMu.Lock()
	c.owned[id] = true
	c.resMu.Unlock()
}

// Create records the new window under its stripe, descending from the
// stripe to the leaf. Clean.
func (c *ResConn) Create(s *Striped, id int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.lockStripe(id)
	c.track(id)
	s.unlockStripe(st)
}

// Forget inverts the hierarchy: a stripe taken under the leaf.
func (c *ResConn) Forget(s *Striped, id int) {
	c.resMu.Lock()
	defer c.resMu.Unlock()
	st := s.lockStripe(id) // want `Forget acquires a stripe while holding resMu`
	delete(s.items, id)
	s.unlockStripe(st)
}

// Sweep reaches a stripe through a call while holding the leaf.
func (c *ResConn) Sweep(s *Striped, id int) {
	c.resMu.Lock()
	s.bump(id) // want `Sweep calls bump, which acquires a stripe, while holding resMu`
	c.resMu.Unlock()
}

// Notify holds two connection leaves at once.
func (c *ResConn) Notify() {
	c.resMu.Lock()
	defer c.resMu.Unlock()
	c.qMu.Lock() // want `acquires qMu while holding resMu; the connection leaf locks are unordered peers`
	c.qMu.Unlock()
}

package core

import "metaclass/internal/protocol"

// Touch re-stamps an entity as changed without altering state, so a test can
// force re-replication of an entity it did not rewrite.
func (s *Store) Touch(id protocol.ParticipantID) bool {
	slot, ok := s.slots[id]
	if !ok {
		return false
	}
	s.recs[slot].changedTick = s.tick
	return true
}

// RemovalLogLen exposes the removal backlog size.
func (s *Store) RemovalLogLen() int { return len(s.removals) }

// Peers returns registered peer IDs, sorted, in a fresh slice.
func (r *Replicator) Peers() []string {
	return r.PeersAppend(nil)
}

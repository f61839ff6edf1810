package platform

import "cocg/internal/resources"

// ForceGeneralTick makes every later tick of the server take tickAt's general
// path, whatever the certificate says — the reference side of the differential
// tests. It exists only in test builds.
func (s *Server) ForceGeneralTick() { s.forceGeneral = true }

// LastGrant exposes the cap the session could have used last second.
func (h *Hosted) LastGrant() resources.Vector { return h.lastGrant }

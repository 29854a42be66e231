package session

// ForgetPlans empties s's plan cache, so the next ask of any statement
// plans afresh: compile and rewrite search.
func ForgetPlans(s *Session) {
	s.planMu.Lock()
	clear(s.plans)
	s.planMu.Unlock()
}

package session

// ForgetPlans empties s's plan cache, so the next ask of any statement
// plans afresh: compile and rewrite search.
func ForgetPlans(s *Session) {
	s.planMu.Lock()
	clear(s.plans)
	s.planMu.Unlock()
}

// BeforeRegister makes s call fn just before its retention registers each
// materialization as a view; nil removes the hook.
func BeforeRegister(s *Session, fn func(name string)) { s.beforeRegister = fn }

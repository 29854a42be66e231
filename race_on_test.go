//go:build race

package opportune

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates, so counts taken under it mean nothing.
const raceEnabled = true

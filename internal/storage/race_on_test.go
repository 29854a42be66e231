//go:build race

package storage

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates, so counts taken under it mean nothing.
const raceEnabled = true

//go:build !race

package opportune

const raceEnabled = false

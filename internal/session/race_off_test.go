//go:build !race

package session_test

const raceEnabled = false

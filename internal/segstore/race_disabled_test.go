//go:build !race

package segstore

const raceEnabled = false

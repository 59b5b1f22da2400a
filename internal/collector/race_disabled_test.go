//go:build !race

package collector

const raceEnabled = false

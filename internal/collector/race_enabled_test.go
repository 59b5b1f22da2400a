//go:build race

package collector

// raceEnabled mirrors the -race flag for tests whose assertions the race
// runtime itself invalidates (allocation pins: under -race sync.Pool drops
// a quarter of what is put back, on purpose).
const raceEnabled = true

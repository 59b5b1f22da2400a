//go:build race

package segstore

// raceEnabled mirrors the -race flag for tests whose assertions the race
// runtime itself invalidates (allocation-count pins: the race runtime
// instruments allocations and shadows them, inflating the counts).
const raceEnabled = true

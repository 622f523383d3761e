//go:build race

package block

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is handed, so not every released payload comes back out of the pool.
const raceEnabled = true

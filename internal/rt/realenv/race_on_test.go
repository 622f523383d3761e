//go:build race

package realenv

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is handed, so a path with pooled payloads allocates a fraction of them.
const raceEnabled = true

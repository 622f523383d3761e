//go:build race

package zipper

// raceEnabled: under the race detector sync.Pool drops a quarter of what it
// is handed, so a path with more pooled payloads allocates a fraction more.
const raceEnabled = true

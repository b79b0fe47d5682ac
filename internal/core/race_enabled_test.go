//go:build race

package core

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool deliberately drops puts and allocation-count assertions are
// meaningless.
const raceEnabled = true

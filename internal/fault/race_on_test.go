//go:build race

package fault_test

// Under -race the equivalence wall's grid runs on representative cells
// only: the detector is there to catch unsynchronized snapshot sharing
// between workers, which a subset exercises just as well as the full grid.
const raceEnabled = true

// Package statsmirrortest is a lint fixture: an enum-indexed name registry
// with a missing and an empty entry, next to tables the rule must ignore.
package statsmirrortest

type point uint8

const (
	alpha point = iota
	beta
	gamma
	numPoints
)

// pointNames forgot gamma and left beta blank.
var pointNames = [numPoints]string{ // want `registry pointNames has no entry for gamma \(= 2\); every point below the array bound must be named`
	alpha: "alpha",
	beta:  "", // want `registry pointNames entry for beta is empty`
}

// fullNames is complete, using positional entries.
var fullNames = [numPoints]string{"alpha", "beta", "gamma"}

// probTable is a zero-value array, not a name registry; it draws no
// diagnostics.
var probTable = [numPoints]string{}

// plainTable is not indexed by a defined enum type.
var plainTable = [4]string{"a"}

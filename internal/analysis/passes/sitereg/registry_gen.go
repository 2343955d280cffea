// Code generated by joinlint -gensites from DESIGN.md; DO NOT EDIT.

package sitereg

// Registry holds every fault-injection site DESIGN.md documents.
var Registry = map[string]bool{
	"bench/disarmed-site": true,
	"engine/rung":         true,
	"schemecache/corrupt": true,
	"schemecache/lookup":  true,
	"serve/admit":         true,
	"serve/drain":         true,
	"serve/handler":       true,
	"solver/component":    true,
	"solver/exact/budget": true,
	"tsp/bnb/expand":      true,
	"tsp/exact/expand":    true,
}

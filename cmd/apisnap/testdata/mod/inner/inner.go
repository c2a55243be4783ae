// Package inner holds the types the api package aliases.
package inner

// Config is a struct target: its exported fields appear under the alias.
type Config struct {
	Min, Max int
	hidden   int
	Nested
}

// Nested is embedded in Config.
type Nested struct{ Depth int }

// Handle is an interface target: an alias of it lists no fields.
type Handle interface{ Close() }

// Renamed is itself an alias: it is not followed a second time.
type Renamed = Config

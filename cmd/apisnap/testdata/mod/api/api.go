// Package api aliases types of its own module and of the standard
// library.
package api

import (
	"strings"

	in "example.com/mod/inner"
)

// Settings follows the struct in the inner package.
type Settings = in.Config

// Handle is an interface alias.
type Handle = in.Handle

// Again is an alias of an alias.
type Again = in.Renamed

// Builder aliases a type outside the module.
type Builder = strings.Builder

type private = in.Config

package main

import (
	"slices"
	"testing"
)

// TestSnapshotFollowsModuleAliases snapshots testdata/mod/api: an alias
// of a struct in another package of the same module lists the target's
// exported fields (embedded ones included) under the alias name, and
// interface, alias-of-alias, out-of-module and unexported aliases add
// nothing beyond their alias line.
func TestSnapshotFollowsModuleAliases(t *testing.T) {
	got, err := snapshot("testdata/mod/api")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"type Again = in.Renamed",
		"type Builder = strings.Builder",
		"type Handle = in.Handle",
		"type Settings = in.Config",
		"type Settings struct, Max int",
		"type Settings struct, Min int",
		"type Settings struct, embedded Nested",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("snapshot:\n%q\nwant:\n%q", got, want)
	}
}

// Package lib holds one case of each rule deadexport applies.
package lib

import "fmt"

// Used is called from cmd/app.
func Used() int { return 1 }

// Unused has no caller.
func Unused() {}

// OnlyTest is called from lib_test.go alone.
func OnlyTest() {}

// Allowed has no caller, but the allowlist names it.
func Allowed() {}

// T is used by cmd/app.
type T struct{}

// TestOnly is a method only lib_test.go calls.
func (T) TestOnly() {}

// String makes T a fmt.Stringer: fmt calls it without naming it.
func (T) String() string { return fmt.Sprint("t") }

package lib

import "testing"

func TestLib(t *testing.T) {
	OnlyTest()
	T{}.TestOnly()
}

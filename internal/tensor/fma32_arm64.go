package tensor

// fma32 returns a·b+c rounded once to float32, as the emulation in
// fma32.go does on every other architecture: here it is one FMADDS, which
// rounds once by definition (IEEE 754 fusedMultiplyAdd).
//
// The Go spec permits an implementation to fuse a*b + c into one
// operation that skips the product's rounding, and the arm64 compiler
// does so for float32. An explicit conversion, float32(a*b) + c, rounds
// the product and so forbids the fusion. make lint disassembles
// gemmTileGo on an arm64 build and fails unless its sixteen multiply-adds
// are FMADDS instructions with no call to fma32 left.
func fma32(a, b, c float32) float32 { return a*b + c }

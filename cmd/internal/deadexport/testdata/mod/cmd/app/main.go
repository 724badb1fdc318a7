package main

import (
	"fmt"

	"example.com/m/internal/lib"
)

func main() { fmt.Println(lib.Used(), lib.T{}) }

// Command reachdemo is a small program for the reachability guard's own
// test: it holds each shape of dead code that matching names cannot see,
// next to live code that only types show is live.
package main

import (
	"fmt"

	"reachdemo/shapes"
)

func main() {
	fmt.Println(shapes.Total([]shapes.Shape{shapes.Box{Size: 2}}))
	fmt.Println(shapes.Crate{}.Size(), shapes.Bag{N: 3}.Count())
	fmt.Println(shapes.Run(shapes.Config{Name: "demo"}), shapes.Exercise())
}

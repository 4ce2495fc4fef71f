// Package shapes is the guard fixture's library.
package shapes

// Shape is what Total sums.
type Shape interface{ Area() int }

// Box.Area is called only through Shape, so it is live.
type Box struct{ Size int }

func (b Box) Area() int { return b.Size * b.Size }

// Total sums the shapes' areas.
func Total(ss []Shape) int {
	n := 0
	for _, s := range ss {
		n += s.Area()
	}
	return n
}

// Crate.Size is live: main calls it.
type Crate struct{}

func (Crate) Size() int { return 1 }

// Bag.Size is dead. A guard that matches names takes Crate.Size's callers
// and Box.Size's readers for its own.
type Bag struct{ N int }

func (b Bag) Count() int { return b.N }

func (b Bag) Size() int { return b.N * 2 }

// Config.Verbose is read here, but only shapes_test.go sets it.
type Config struct {
	Name    string
	Verbose bool
}

// Run describes the configuration.
func Run(c Config) string {
	if c.Verbose {
		return "verbose " + c.Name
	}
	return c.Name
}

// Unused is named by nothing.
type Unused struct{}

// handlers names one, and nothing else does; a package-level initializer
// always runs, so one is live.
var handlers = map[string]func() int{"one": one}

func one() int { return 1 }

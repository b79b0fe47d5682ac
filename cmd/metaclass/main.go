// Command metaclass runs the experiment suite that reproduces the paper's
// figures and §III-C claims (the list is experiments.All).
//
// Usage:
//
//	metaclass -list
//	metaclass -exp E3 [-seed 7]
//	metaclass            # run everything
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"metaclass/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment to run (E1..E14); empty runs all")
		seed = flag.Int64("seed", 42, "simulation seed")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if err := run(*exp, *seed, *list); err != nil {
		fmt.Fprintln(os.Stderr, "metaclass:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64, list bool) error {
	all := experiments.All()
	if list {
		for _, r := range all {
			fmt.Println(r.ID)
		}
		return nil
	}
	want := strings.ToUpper(strings.TrimSpace(exp))
	ran := false
	for _, r := range all {
		if want != "" && r.ID != want {
			continue
		}
		table := r.Run(seed)
		fmt.Println(table.String())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (use -list)", exp)
	}
	return nil
}

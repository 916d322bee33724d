# Convenience targets for the ObjectMath reproduction.

.PHONY: all build test bench examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bearing_sim.exe
	dune exec examples/powerplant_sim.exe
	dune exec examples/heat_equation.exe
	dune exec examples/scaling_study.exe
	dune exec examples/dam_safety.exe

# odoc site for the whole library tree (requires odoc; landing page
# doc/index.mld).  Output under _build/default/_doc/_html/.
doc:
	dune build @doc

clean:
	dune clean

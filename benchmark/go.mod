// The benchmark is a module of its own so it builds from its own build
// file, yet its path sits under the program's module path, which is what
// lets it import toposense/internal/...
module toposense/benchmark

go 1.22

require toposense v0.0.0

replace toposense => ../

// The benchmark is a module of its own, nested in the repository, so that
// the repository's build (`go build ./...` at the root) never compiles it
// and it carries its own build file. The module path sits under `opportune/`
// on purpose: Go checks `internal/` visibility by import path, so this
// module may import `opportune/internal/...` through the replace below.
module opportune/bench

go 1.22

require opportune v0.0.0

replace opportune => ../

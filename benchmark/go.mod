// The benchmark is a module of its own so that the root module's build,
// vet and test commands never compile it; the import path keeps the
// "xingtian/" prefix, which is what lets it import xingtian/internal/...
module xingtian/benchmark

go 1.22

require xingtian v0.0.0

replace xingtian => ../

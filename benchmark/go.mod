module hfi/benchmark

go 1.24

require hfi v0.0.0

replace hfi => ../

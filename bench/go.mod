module nucleus/bench

go 1.24

require nucleus v0.0.0

replace nucleus => ../

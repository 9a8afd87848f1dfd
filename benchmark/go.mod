module zapc/benchmark

go 1.23

require zapc v0.0.0

replace zapc => ../

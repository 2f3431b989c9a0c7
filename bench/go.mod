module tiermerge/bench

go 1.22

require tiermerge v0.0.0

replace tiermerge => ../

module metaclass/bench

go 1.24

require metaclass v0.0.0

replace metaclass => ../
